/// \file table04_mechanisms.cpp
/// Reproduces paper Table 4: the routing-mechanism inventory — routing
/// algorithm, VC management and VC budget of every evaluated mechanism,
/// as configured in this repository. The factory verification lines fan
/// across the sweep pool via ParallelSweep::map (--jobs=N), delivered in
/// submission order. The inventory is static text, not simulation work,
/// so --emit-tasks writes an empty manifest.
///
/// Usage: table04_mechanisms [--jobs=N] [--csv[=file]]

#include "bench_util.hpp"
#include "routing/factory.hpp"

using namespace hxsp;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const bench::CommonOptions common(opt);
  if (bench::maybe_emit_tasks(common, TaskGrid("table04_mechanisms"))) return 0;

  std::printf("Table 4 — Routing mechanisms evaluated (n = dimensions)\n\n");

  struct Row {
    const char* mech, *algo, *vc_mgmt, *use_2n, *vcs;
  };
  const std::vector<Row> rows = {
      {"Minimal", "Shortest path (BFS tables)", "Ladder", "2 VCs per step", "n"},
      {"Valiant", "Shortest path per phase", "Ladder", "1 VC per step", "2n"},
      {"OmniWAR", "Omnidimensional", "Ladder",
       "1 VC per hop (n min + n deroutes)", "2n"},
      {"Polarized", "Polarized", "Ladder", "1 VC per step", "2n"},
      {"OmniSP", "Omnidimensional", "SurePath",
       "2n-1 VCs routing (free) + 1 VC Up/Down", "2"},
      {"PolSP", "Polarized", "SurePath",
       "2n-1 VCs routing (rung) + 1 VC Up/Down", "2"},
  };
  Table t({"Mechanism", "Routing algorithm", "VC management", "Use of 2n VCs",
           "VCs required"});
  ResultSink sink("table04_mechanisms");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    t.row().cell(r.mech).cell(r.algo).cell(r.vc_mgmt).cell(r.use_2n).cell(r.vcs);
    ResultRecord rec;
    rec.kind = "info";
    rec.task_id = make_task_id("table04_mechanisms", i);
    rec.mechanism = r.mech;
    rec.extra = std::string("algorithm=") + r.algo + ";vc_management=" +
                r.vc_mgmt + ";vcs_required=" + r.vcs;
    sink.add(std::move(rec));
  }
  std::printf("%s\n", t.str().c_str());

  // Verify that the factory actually builds what the table advertises;
  // each construction is independent, so fan them across the pool.
  const auto names = mechanism_names();
  struct Built {
    std::string display;
    bool escape = false;
  };
  ParallelSweep sweep(common.jobs);
  sweep.map<Built>(
      names.size(),
      [&](std::size_t i) {
        auto m = make_mechanism(names[i]);
        return Built{m->name(), m->needs_escape()};
      },
      [&](std::size_t i, const Built& b) {
        std::printf("factory: %-10s -> %-10s escape=%s\n",
                    names[i].c_str(), b.display.c_str(),
                    b.escape ? "yes" : "no");
      });
  bench::persist(opt, sink, "table04_mechanisms");
  return 0;
}

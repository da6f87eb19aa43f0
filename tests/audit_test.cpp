/// \file audit_test.cpp
/// Tests for the engine invariant auditor (sim/audit.cpp): a healthy run
/// audits clean, the audit perturbs nothing (byte-identical results with
/// audit on vs off), and deliberately corrupted incremental state — the
/// O(1) structures PR 4 maintains alongside the queues — is caught by the
/// next audit and aborts via HXSP_CHECK (death tests).

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "harness/experiment.hpp"
#include "workload/run.hpp"

namespace hxsp {
namespace {

/// 4x4 HyperX, 2 servers/switch, adaptive routing so every incremental
/// structure (scores, masks, active lists) sees real churn.
ExperimentSpec audit_spec(Cycle audit_interval) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.sim.audit_interval = audit_interval;
  s.seed = 11;
  return s;
}

TEST(Audit, CleanOnHealthyLoadedRun) {
  Experiment e(audit_spec(64));
  Network net(e.context(), e.mechanism(), e.traffic(), audit_spec(64).sim,
              2, 11);
  net.set_offered_load(0.5);
  net.run_cycles(2000); // ~31 audits under load; any mismatch aborts
  net.run_audit();      // and once more with traffic still in flight
  EXPECT_GT(net.metrics().total_consumed_packets(), 0);
}

TEST(Audit, CleanOnDrainedCompletionRun) {
  Experiment e(audit_spec(128));
  Network net(e.context(), e.mechanism(), e.traffic(), audit_spec(128).sim,
              2, 11);
  CompletionSource source(32);
  source.start(net);
  ASSERT_TRUE(net.run_until_drained(400000));
  net.run_audit(); // empty network must balance too
  EXPECT_EQ(net.packets_in_system(), 0);
}

TEST(Audit, DoesNotPerturbSimulation) {
  // Audit on vs off over the same seed must agree exactly: the auditor
  // reads everything and mutates nothing (acceptance: zero behavior
  // change when enabled, not just when compiled out).
  auto run = [&](Cycle interval) {
    Experiment e(audit_spec(interval));
    Network net(e.context(), e.mechanism(), e.traffic(),
                audit_spec(interval).sim, 2, 11);
    net.set_offered_load(0.6);
    net.run_cycles(3000);
    return std::make_pair(net.metrics().total_consumed_packets(),
                          net.metrics().total_generated_packets());
  };
  const auto off = run(0);
  const auto on = run(64);
  EXPECT_EQ(off.first, on.first);
  EXPECT_EQ(off.second, on.second);
}

/// Builds, loads and warms a network so the corruption hooks hit
/// structures with real traffic behind them. Owns the Experiment the
/// Network references.
struct LoadedNet {
  explicit LoadedNet(Cycle audit_interval, Cycle warm = 500)
      : e(audit_spec(audit_interval)),
        net(e.context(), e.mechanism(), e.traffic(),
            audit_spec(audit_interval).sim, 2, 11) {
    net.set_offered_load(0.6);
    net.run_cycles(warm);
  }
  Experiment e;
  Network net;
};

// --- corruption detection (death tests) ------------------------------------
//
// Each test lets traffic flow, reaches into one incrementally-maintained
// structure through the corrupt_*_for_test hooks, and expects the next
// audit to abort with an "audit" message. This is the proof that the
// auditor actually cross-checks rather than re-deriving both sides from
// the same state.

TEST(AuditDeath, CatchesCorruptedScoreSum) {
  LoadedNet l(0);
  l.net.router(0).corrupt_output_for_test(0).score_sum += 3;
  EXPECT_DEATH(l.net.run_audit(), "audit");
}

TEST(AuditDeath, CatchesCorruptedFeasibleMask) {
  LoadedNet l(0);
  l.net.router(0).corrupt_output_for_test(0).feasible_mask ^= 0x1u;
  EXPECT_DEATH(l.net.run_audit(), "audit");
}

TEST(AuditDeath, CatchesCorruptedWaitingCount) {
  LoadedNet l(0);
  l.net.router(0).corrupt_output_for_test(0).waiting += 1;
  EXPECT_DEATH(l.net.run_audit(), "audit");
}

TEST(AuditDeath, CatchesCorruptedScoreTerm) {
  LoadedNet l(0);
  // A phantom occupancy/credit unit in one VC's Q term breaks the port
  // score sum and the output-occupancy ledger (occupancy is qs less
  // consumed credits).
  l.net.router(0).corrupt_out_qs_for_test(0, 0) += 1;
  EXPECT_DEATH(l.net.run_audit(), "audit");
}

TEST(AuditDeath, CatchesStaleCandidateSlot) {
  LoadedNet l(0);
  // A valid slot whose head id is not the current head's: the state a
  // grant that forgot to invalidate (or a swap-remove that left the slot
  // behind) would leave. Routing from it would move a packet on another
  // packet's candidates.
  SwitchId busy = kInvalid;
  for (SwitchId s = 0; s < 16 && busy == kInvalid; ++s)
    if (l.net.router(s).has_input_work()) busy = s;
  ASSERT_NE(busy, kInvalid);
  CandSlot& slot = l.net.router(busy).corrupt_cand_slot_for_test(0);
  slot.valid = true;
  slot.head_id = -2;
  EXPECT_DEATH(l.net.run_audit(), "audit: candidate slot outlived its head");
}

TEST(AuditDeath, CatchesCorruptedCandidateVcRange) {
  LoadedNet l(0);
  // A valid cached entry whose VC range runs past the router's VCs: the
  // request scan would index out_qs_ past the port's queues. Saturating
  // load leaves heads waiting on cached candidates.
  l.net.set_offered_load(1.0);
  l.net.run_cycles(500);
  const int vcs = audit_spec(0).sim.num_vcs;
  CandSlot* slot = nullptr;
  for (SwitchId s = 0; s < 16 && slot == nullptr; ++s) {
    Router& r = l.net.router(s);
    for (Port p = 0; p < r.num_ports() && slot == nullptr; ++p)
      for (Vc v = 0; v < vcs && slot == nullptr; ++v) {
        const int pos = r.input(p, v).active_pos;
        if (pos < 0) continue;
        CandSlot& cs = r.corrupt_cand_slot_for_test(pos);
        if (cs.valid && !cs.cand.empty()) slot = &cs;
      }
  }
  ASSERT_NE(slot, nullptr);
  slot->cand.front().vc_hi = static_cast<std::uint8_t>(vcs);
  EXPECT_DEATH(l.net.run_audit(),
               "audit: candidate entry has an invalid VC range");
}

TEST(AuditDeath, CatchesRoutingEntryAfterEscapeEntry) {
  LoadedNet l(0);
  // A valid cached list whose routing entry follows an escape entry: the
  // allocator reads an escape front as "no routing candidate" and would
  // count an escape grant from it as forced. A PolSP head off the escape
  // lists its routing entries, then its escape entries.
  l.net.set_offered_load(1.0);
  l.net.run_cycles(500);
  const int vcs = audit_spec(0).sim.num_vcs;
  CandSlot* slot = nullptr;
  for (SwitchId s = 0; s < 16 && slot == nullptr; ++s) {
    Router& r = l.net.router(s);
    for (Port p = 0; p < r.num_ports() && slot == nullptr; ++p)
      for (Vc v = 0; v < vcs && slot == nullptr; ++v) {
        const int pos = r.input(p, v).active_pos;
        if (pos < 0) continue;
        CandSlot& cs = r.corrupt_cand_slot_for_test(pos);
        if (cs.valid && !cs.cand.front().escape && cs.cand.back().escape)
          slot = &cs;
      }
  }
  ASSERT_NE(slot, nullptr);
  std::swap(slot->cand.front(), slot->cand.back());
  EXPECT_DEATH(l.net.run_audit(),
               "audit: candidate slot lists a routing entry after an escape "
               "entry");
}

// A credit the engine never owed: every credit event stands for one
// packet's space that a grant or a consumption freed, so an extra one must
// break the ledger of the buffer it claims to free.
TEST(AuditDeath, CatchesPhantomRouterCredit) {
  LoadedNet l(0);
  l.net.schedule(l.net.now() + 1, {Event::Kind::CreditRouter, 0, 0, 0});
  EXPECT_DEATH(l.net.run_audit(), "credit conservation");
}

TEST(AuditDeath, CatchesPhantomServerCredit) {
  LoadedNet l(0);
  l.net.schedule(l.net.now() + 1, {Event::Kind::CreditServer, 0, 0, 0});
  EXPECT_DEATH(l.net.run_audit(), "credit conservation");
}

TEST(AuditDeath, CatchesLostPacket) {
  LoadedNet l(0);
  ASSERT_GT(l.net.packets_in_system(), 0);
  // One packet lives in the slab without any buffer, queue or event
  // holding it: the packet ledger is the engine's only packet check.
  (void)l.net.leak_packet_for_test();
  EXPECT_DEATH(l.net.run_audit(), "audit: packet conservation violated");
}

TEST(AuditDeath, CorruptionCaughtByPeriodicAuditDuringRun) {
  // End-to-end: the in-run audit (step() every audit_interval cycles)
  // catches the corruption without any manual run_audit call.
  LoadedNet l(64);
  l.net.router(3).corrupt_output_for_test(1).score_sum += 7;
  EXPECT_DEATH(l.net.run_cycles(128), "audit");
}

// --- flight recorder dumps (death tests) ------------------------------------
//
// With SimConfig::flight_recorder on, the abort path of HXSP_CHECK dumps
// the network's recent engine events to stderr before dying — an audit
// violation therefore comes with the context that led up to it.

/// LoadedNet with the flight recorder armed; a deep ring so the recent
/// window provably covers events at every router of the 4x4 fabric.
struct RecordedNet {
  explicit RecordedNet(Cycle audit_interval) : e(make(audit_interval)) {
    ExperimentSpec s = make(audit_interval);
    net = std::make_unique<Network>(e.context(), e.mechanism(), e.traffic(),
                                    s.sim, 2, 11);
    net->set_offered_load(0.6);
    net->run_cycles(500);
  }
  static ExperimentSpec make(Cycle audit_interval) {
    ExperimentSpec s = audit_spec(audit_interval);
    s.sim.flight_recorder = 1024;
    return s;
  }
  Experiment e;
  std::unique_ptr<Network> net;
};

TEST(AuditDeath, AbortDumpsFlightRecorder) {
  RecordedNet r(0);
  r.net->router(0).corrupt_output_for_test(0).score_sum += 3;
  // The check message and the dump header both reach stderr.
  EXPECT_DEATH(r.net->run_audit(), "hxsp flight recorder");
}

TEST(AuditDeath, FlightDumpNamesTheFailingRouter) {
  RecordedNet r(0);
  r.net->router(0).corrupt_output_for_test(0).score_sum += 3;
  // The summary line lists every router with recent events; a 1024-deep
  // ring over a loaded 16-switch fabric includes the corrupted router 0.
  EXPECT_DEATH(r.net->run_audit(), "routers touched: 0 1 ");
}

TEST(AuditDeath, PeriodicAuditAbortCarriesFlightDump) {
  // End-to-end: the in-run audit trip (not a manual run_audit) also
  // goes through the dumping abort path.
  RecordedNet r(64);
  r.net->router(3).corrupt_output_for_test(1).score_sum += 7;
  EXPECT_DEATH(r.net->run_cycles(128), "hxsp flight recorder");
}

} // namespace
} // namespace hxsp

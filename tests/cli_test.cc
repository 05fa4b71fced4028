// The svcctl command interpreter: parsing, admission semantics, error
// handling, and script execution.
#include "cli/interpreter.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/daemon.h"
#include "obs/decision_log.h"
#include "topology/builders.h"
#include "util/thread_pool.h"

namespace svc::cli {
namespace {

class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest()
      : topo_(topology::BuildTwoTier(2, 3, 4, 1000, 2.0)),
        interpreter_(topo_, 0.05) {}

  std::string Exec(const std::string& line, bool* ok = nullptr) {
    std::ostringstream out;
    const bool result = interpreter_.Execute(line, out);
    if (ok != nullptr) *ok = result;
    return out.str();
  }

  topology::Topology topo_;
  Interpreter interpreter_;
};

TEST_F(InterpreterTest, BlankAndCommentLinesSucceedSilently) {
  bool ok = false;
  EXPECT_EQ(Exec("", &ok), "");
  EXPECT_TRUE(ok);
  EXPECT_EQ(Exec("   # a comment", &ok), "");
  EXPECT_TRUE(ok);
}

TEST_F(InterpreterTest, AdmitHomogeneous) {
  bool ok = false;
  const std::string out = Exec("admit 1 homogeneous 6 100 40", &ok);
  EXPECT_TRUE(ok) << out;
  EXPECT_NE(out.find("placed"), std::string::npos);
  EXPECT_TRUE(interpreter_.manager().IsLive(1));
}

TEST_F(InterpreterTest, AdmitDeterministicAndRelease) {
  bool ok = false;
  Exec("admit 2 deterministic 4 100", &ok);
  EXPECT_TRUE(ok);
  const std::string out = Exec("release 2", &ok);
  EXPECT_TRUE(ok);
  EXPECT_NE(out.find("done"), std::string::npos);
  EXPECT_FALSE(interpreter_.manager().IsLive(2));
}

TEST_F(InterpreterTest, AdmitHeterogeneous) {
  bool ok = false;
  const std::string out =
      Exec("admit 3 heterogeneous 300:150 100:20 50:5", &ok);
  // Needs a heterogeneous-capable allocator first.
  EXPECT_FALSE(ok);
  Exec("allocator hetero-heuristic", &ok);
  EXPECT_TRUE(ok);
  const std::string retry =
      Exec("admit 3 heterogeneous 300:150 100:20 50:5", &ok);
  EXPECT_TRUE(ok) << retry;
}

TEST_F(InterpreterTest, RejectionReportsReason) {
  bool ok = true;
  const std::string out = Exec("admit 4 homogeneous 100 100 40", &ok);
  EXPECT_FALSE(ok);  // 100 VMs > 24 slots
  EXPECT_NE(out.find("REJECTED"), std::string::npos);
  EXPECT_NE(out.find("CAPACITY"), std::string::npos);
}

TEST_F(InterpreterTest, ShowCommands) {
  Exec("admit 1 homogeneous 6 100 40");
  bool ok = false;
  EXPECT_NE(Exec("show slots", &ok).find("18 free of 24"),
            std::string::npos);
  EXPECT_TRUE(ok);
  EXPECT_NE(Exec("show occupancy 3", &ok).find("link"), std::string::npos);
  EXPECT_TRUE(ok);
  EXPECT_NE(Exec("show placement 1", &ok).find("6 VMs"), std::string::npos);
  EXPECT_TRUE(ok);
  EXPECT_NE(Exec("show tenants", &ok).find("1 live"), std::string::npos);
  EXPECT_TRUE(ok);
}

TEST_F(InterpreterTest, ShowPlacementOfUnknownTenantFails) {
  bool ok = true;
  EXPECT_NE(Exec("show placement 99", &ok).find("not live"),
            std::string::npos);
  EXPECT_FALSE(ok);
}

TEST_F(InterpreterTest, Asserts) {
  bool ok = false;
  EXPECT_NE(Exec("assert valid", &ok).find("ok"), std::string::npos);
  EXPECT_TRUE(ok);
  Exec("admit 1 homogeneous 4 50 10");
  EXPECT_NE(Exec("assert live 1", &ok).find("ok"), std::string::npos);
  EXPECT_TRUE(ok);
  EXPECT_NE(Exec("assert live 2", &ok).find("FAILED"), std::string::npos);
  EXPECT_FALSE(ok);
}

TEST_F(InterpreterTest, UnknownCommandsAndAllocators) {
  bool ok = true;
  EXPECT_NE(Exec("frobnicate", &ok).find("unknown command"),
            std::string::npos);
  EXPECT_FALSE(ok);
  EXPECT_NE(Exec("allocator warp-drive", &ok).find("unknown allocator"),
            std::string::npos);
  EXPECT_FALSE(ok);
  // Still functional afterwards.
  Exec("allocator oktopus", &ok);
  EXPECT_TRUE(ok);
}

TEST_F(InterpreterTest, MalformedAdmitArguments) {
  bool ok = true;
  EXPECT_FALSE(interpreter_.Execute("admit", std::cout));
  Exec("admit x homogeneous 4 100 10", &ok);
  EXPECT_FALSE(ok);
  Exec("admit 5 homogeneous 4 abc 10", &ok);
  EXPECT_FALSE(ok);
  Exec("admit 5 heterogeneous 100-10", &ok);
  EXPECT_FALSE(ok);
  // 2^32 + 2 VMs does not fit the request's int count; it must not be
  // truncated into a 2-VM tenant.
  Exec("admit 5 homogeneous 4294967298 100 10", &ok);
  EXPECT_FALSE(ok);
  Exec("admit 5 deterministic 4294967298 100", &ok);
  EXPECT_FALSE(ok);
  EXPECT_EQ(interpreter_.manager().live_count(), 0u);
}

TEST_F(InterpreterTest, ScriptRunCountsFailures) {
  std::istringstream script(
      "admit 1 homogeneous 4 100 30\n"
      "admit 2 deterministic 4 50\n"
      "bogus command\n"
      "assert live 1\n"
      "release 1\n"
      "assert live 1\n");  // fails: released
  std::ostringstream out;
  EXPECT_EQ(interpreter_.Run(script, out), 2);
  EXPECT_TRUE(interpreter_.manager().IsLive(2));
}

TEST_F(InterpreterTest, SnapshotSaveAndLoad) {
  const std::string path = ::testing::TempDir() + "/cli_snapshot.txt";
  bool ok = false;
  Exec("admit 1 homogeneous 6 100 40", &ok);
  ASSERT_TRUE(ok);
  Exec("snapshot save " + path, &ok);
  EXPECT_TRUE(ok);
  // A fresh interpreter on the same topology restores the tenant.
  Interpreter fresh(topo_, 0.05);
  std::ostringstream out;
  EXPECT_TRUE(fresh.Execute("snapshot load " + path, out));
  EXPECT_TRUE(fresh.manager().IsLive(1));
  // Loading into a non-empty manager fails loudly.
  EXPECT_FALSE(fresh.Execute("snapshot load " + path, out));
}

TEST_F(InterpreterTest, SnapshotBadUsage) {
  bool ok = true;
  Exec("snapshot", &ok);
  EXPECT_FALSE(ok);
  Exec("snapshot frobnicate /tmp/x", &ok);
  EXPECT_FALSE(ok);
  Exec("snapshot load /nonexistent/path.txt", &ok);
  EXPECT_FALSE(ok);
}

TEST_F(InterpreterTest, ReleaseUnknownIsNoopSuccess) {
  bool ok = false;
  EXPECT_NE(Exec("release 77", &ok).find("no-op"), std::string::npos);
  EXPECT_TRUE(ok);
}

TEST_F(InterpreterTest, FailRecoverFaultsDrill) {
  bool ok = false;
  EXPECT_EQ(Exec("faults", &ok), "faults: none\n");
  EXPECT_TRUE(ok);

  Exec("admit 1 homogeneous 6 100 40", &ok);
  ASSERT_TRUE(ok);
  const topology::VertexId machine =
      interpreter_.manager().placement_of(1)->vm_machine[0];

  // Default policy is reallocate: the tenant survives the machine fault.
  std::string out =
      Exec("fail machine " + std::to_string(machine), &ok);
  EXPECT_TRUE(ok) << out;
  EXPECT_NE(out.find("1 recovered"), std::string::npos) << out;
  EXPECT_NE(out.find("policy reallocate"), std::string::npos) << out;
  EXPECT_TRUE(interpreter_.manager().IsLive(1));
  EXPECT_TRUE(interpreter_.manager().IsFailed(machine));

  out = Exec("faults", &ok);
  EXPECT_TRUE(ok);
  EXPECT_NE(out.find("machine:" + std::to_string(machine)),
            std::string::npos)
      << out;

  // Double fault fails; recovery succeeds exactly once.
  Exec("fail machine " + std::to_string(machine), &ok);
  EXPECT_FALSE(ok);
  EXPECT_EQ(Exec("recover " + std::to_string(machine), &ok),
            "recover " + std::to_string(machine) + ": done\n");
  EXPECT_TRUE(ok);
  Exec("recover " + std::to_string(machine), &ok);
  EXPECT_FALSE(ok);
  EXPECT_EQ(Exec("faults", &ok), "faults: none\n");
}

TEST_F(InterpreterTest, PolicyEvictReportsReasonCodes) {
  bool ok = false;
  EXPECT_EQ(Exec("policy evict", &ok), "policy: evict\n");
  EXPECT_TRUE(ok);
  Exec("admit 1 homogeneous 6 100 40", &ok);
  ASSERT_TRUE(ok);
  const topology::VertexId machine =
      interpreter_.manager().placement_of(1)->vm_machine[0];
  const std::string out =
      Exec("fail machine " + std::to_string(machine), &ok);
  EXPECT_TRUE(ok) << out;
  EXPECT_NE(out.find("1 evicted"), std::string::npos) << out;
  EXPECT_NE(out.find("evict:1:policy"), std::string::npos) << out;
  EXPECT_FALSE(interpreter_.manager().IsLive(1));
  // Failed elements refuse new work until recovered; a drained datacenter
  // still admits after recovery.
  Exec("recover " + std::to_string(machine), &ok);
  EXPECT_TRUE(ok);
  Exec("assert valid", &ok);
  EXPECT_TRUE(ok);
}

TEST_F(InterpreterTest, FaultCommandBadUsage) {
  bool ok = true;
  Exec("fail", &ok);
  EXPECT_FALSE(ok);
  Exec("fail router 3", &ok);
  EXPECT_FALSE(ok);
  Exec("fail machine notanumber", &ok);
  EXPECT_FALSE(ok);
  Exec("fail link 0", &ok);  // root has no uplink
  EXPECT_FALSE(ok);
  Exec("recover", &ok);
  EXPECT_FALSE(ok);
  Exec("faults now", &ok);
  EXPECT_FALSE(ok);
  Exec("policy smite", &ok);
  EXPECT_FALSE(ok);
}

TEST_F(InterpreterTest, DrainMigratesAndUncordonReopens) {
  bool ok = false;
  Exec("admit 1 homogeneous 6 100 40", &ok);
  ASSERT_TRUE(ok);
  const topology::VertexId machine =
      interpreter_.manager().placement_of(1)->vm_machine[0];

  const std::string out = Exec("drain " + std::to_string(machine), &ok);
  EXPECT_TRUE(ok) << out;
  EXPECT_NE(out.find("migrated"), std::string::npos) << out;
  EXPECT_NE(out.find("machine cordoned"), std::string::npos) << out;
  // The tenant survived the drain; the machine is cordoned but not failed.
  EXPECT_TRUE(interpreter_.manager().IsLive(1));
  EXPECT_FALSE(interpreter_.manager().slots().machine_up(machine));
  EXPECT_FALSE(interpreter_.manager().IsFailed(machine));
  for (topology::VertexId vm :
       interpreter_.manager().placement_of(1)->vm_machine) {
    EXPECT_NE(vm, machine);
  }

  EXPECT_EQ(Exec("uncordon " + std::to_string(machine), &ok),
            "uncordon " + std::to_string(machine) + ": open\n");
  EXPECT_TRUE(ok);
  EXPECT_TRUE(interpreter_.manager().slots().machine_up(machine));
}

TEST_F(InterpreterTest, DrainAndUncordonBadUsage) {
  bool ok = true;
  Exec("drain", &ok);
  EXPECT_FALSE(ok);
  Exec("drain notanumber", &ok);
  EXPECT_FALSE(ok);
  Exec("uncordon", &ok);
  EXPECT_FALSE(ok);
  Exec("uncordon 0", &ok);  // the root is not a machine
  EXPECT_FALSE(ok);
}

// --- batch: the admission pipeline behind svcd ---

TEST_F(InterpreterTest, BatchRejectsBoundsBeforeStartingAnything) {
  // One past each bound fails with the usage error.  The bounds are
  // checked before any request is built or any worker thread starts.
  const int hw = util::ThreadPool::HardwareThreads();
  const int slots = topo_.total_slots();
  bool ok = true;
  std::string out = Exec("batch " + std::to_string(hw + 1) +
                             " 1 100 homogeneous 2 100 10",
                         &ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(out.find("error: batch"), std::string::npos) << out;
  ok = true;
  out = Exec("batch 1 " + std::to_string(slots + 1) +
                 " 100 homogeneous 2 100 10",
             &ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(out.find("error: batch"), std::string::npos) << out;
  // The last id of the range must fit in an int64: ids 2^63 - 1 and 2^63
  // would overflow.
  ok = true;
  out = Exec("batch 1 2 9223372036854775807 homogeneous 2 100 10", &ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(out.find("error: batch"), std::string::npos) << out;
  ok = true;
  out = Exec("batch 1 1 100 deterministic 4294967298 100", &ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(out.find("error: batch"), std::string::npos) << out;
  EXPECT_EQ(interpreter_.manager().live_count(), 0u);
}

TEST(InterpreterBatch, WorkerCountDoesNotChangeDecisions) {
  // `batch` drives the pipeline, whose decisions equal the serial ones for
  // any worker count: same admitted count, same placement for every id.
  const topology::Topology topo = topology::BuildTwoTier(2, 3, 4, 1000, 2.0);
  const int parallel = std::min(4, util::ThreadPool::HardwareThreads());
  const std::vector<std::string> script = {
      "batch W 5 100 homogeneous 3 150 60",
      "batch W 6 200 deterministic 2 120",
      "batch W 4 300 homogeneous 4 200 120",
  };
  auto run = [&](int workers) {
    Interpreter interpreter(topo, 0.05);
    std::string out;
    for (std::string line : script) {
      line.replace(line.find('W'), 1, std::to_string(workers));
      std::ostringstream stream;
      EXPECT_TRUE(interpreter.Execute(line, stream)) << stream.str();
      const std::string text = stream.str();
      out += text.substr(0, text.find(" (proposed")) + "\n";
    }
    for (int first : {100, 200, 300}) {
      for (int id = first; id < first + 6; ++id) {
        std::ostringstream stream;
        interpreter.Execute("show placement " + std::to_string(id), stream);
        out += stream.str();
      }
    }
    return out;
  };
  const std::string serial = run(1);
  // The second batch outruns the free slots, so both verdicts occur.
  EXPECT_NE(serial.find("batch: 4 admitted, 2 rejected"), std::string::npos)
      << serial;
  EXPECT_EQ(run(parallel), serial);
}

// --- The introspection plane: health / tail / explain ---

TEST_F(InterpreterTest, HealthTailExplainReportDecisionProvenance) {
  obs::SetDecisionsEnabled(true);
  obs::ClearDecisions();
  bool ok = false;
  Exec("admit 1 homogeneous 6 100 40", &ok);
  ASSERT_TRUE(ok);
  Exec("admit 2 homogeneous 100 100 40", &ok);  // 100 VMs > 24 slots
  EXPECT_FALSE(ok);

  const std::string health = Exec("health", &ok);
  EXPECT_TRUE(ok) << health;
  EXPECT_NE(health.find("1 tenant(s) live"), std::string::npos) << health;
  EXPECT_NE(health.find("state valid"), std::string::npos) << health;

  const std::string tail = Exec("tail 5", &ok);
  EXPECT_TRUE(ok) << tail;
  EXPECT_NE(tail.find("tenant 1"), std::string::npos) << tail;
  EXPECT_NE(tail.find("tenant 2"), std::string::npos) << tail;

  // `explain` answers the paper's question for a specific tenant: outcome,
  // commit path, and the binding links with their condition-(4) slack.
  const std::string admitted = Exec("explain 1", &ok);
  EXPECT_TRUE(ok) << admitted;
  EXPECT_NE(admitted.find("admit"), std::string::npos) << admitted;
  EXPECT_NE(admitted.find("serial"), std::string::npos) << admitted;
  EXPECT_NE(admitted.find("slack"), std::string::npos) << admitted;

  const std::string rejected = Exec("explain 2", &ok);
  EXPECT_TRUE(ok) << rejected;
  EXPECT_NE(rejected.find("reject"), std::string::npos) << rejected;
  EXPECT_NE(rejected.find("capacity"), std::string::npos) << rejected;
  EXPECT_NE(rejected.find("slack"), std::string::npos) << rejected;
  obs::SetDecisionsEnabled(false);
}

TEST_F(InterpreterTest, ExplainWithoutRecordFails) {
  obs::SetDecisionsEnabled(true);
  obs::ClearDecisions();
  bool ok = true;
  const std::string out = Exec("explain 99", &ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(out.find("no decision recorded"), std::string::npos) << out;
  Exec("explain", &ok);
  EXPECT_FALSE(ok);
  Exec("explain notanumber", &ok);
  EXPECT_FALSE(ok);
  obs::SetDecisionsEnabled(false);
}

TEST_F(InterpreterTest, TailNotesDisabledLoggingAndBadUsage) {
  obs::SetDecisionsEnabled(false);
  bool ok = false;
  const std::string out = Exec("tail", &ok);
  EXPECT_TRUE(ok) << out;
  EXPECT_NE(out.find("disabled"), std::string::npos) << out;
  Exec("tail zero", &ok);
  EXPECT_FALSE(ok);
  Exec("tail 0", &ok);
  EXPECT_FALSE(ok);
  Exec("health now", &ok);
  EXPECT_FALSE(ok);
}

// --- svcctl --connect (cli/daemon.h RunClient) ---

TEST(SvcctlConnect, MissingDaemonExitsTwo) {
  // The exit-code contract svcctl --connect relies on: a connection
  // failure is 2, distinct from "a command failed" (1).
  std::istringstream in("health\n");
  std::ostringstream out;
  EXPECT_EQ(RunClient(::testing::TempDir() + "cli_no_daemon.sock", in, out),
            2);
  EXPECT_NE(out.str().find("error: connect"), std::string::npos) << out.str();
}

TEST(SvcctlConnect, BadSocketPathExitsTwo) {
  std::istringstream in("health\n");
  std::ostringstream out;
  EXPECT_EQ(RunClient("", in, out), 2);
  EXPECT_EQ(RunClient(std::string(200, 'x'), in, out), 2);
}

}  // namespace
}  // namespace svc::cli

// ABC over the wire: a manager-side RemoteAbc driving an AbcServer-wrapped
// target in (what stands for) another process, over an in-process
// ShmTransport pair.
//
// Covers the RPC surface (sense + every actuator), blackout semantics on a
// dead channel, and the two-phase secure-before-commit protocol: the
// client-side commit gate's require_secure annotation must reach the
// server-side Abc's own gate flow.

#include <gtest/gtest.h>

#include <atomic>

#include "am/manager.hpp"
#include "net/remote_abc.hpp"
#include "net/shm.hpp"

namespace bsk::net {
namespace {

/// Records every actuation and what the gate decided.
class FakeAbc final : public am::Abc {
 public:
  am::Sensors sense() override {
    am::Sensors s;
    s.arrival_rate = 1.5;
    s.departure_rate = 0.75;
    s.nworkers = 3;
    s.new_failures = 2;
    return s;
  }

  bool add_worker() override {
    am::Intent i;
    i.action = am::Intent::Action::AddWorker;
    if (!pass_gate(i)) return false;
    last_require_secure = i.require_secure;
    ++adds;
    return true;
  }

  bool remove_worker() override {
    ++removes;
    return removes <= 1;  // second removal "fails": farm at minimum
  }

  std::size_t rebalance() override { return 4; }

  bool set_rate(double r) override {
    last_rate = r;
    return true;
  }

  std::size_t secure_links() override {
    ++secures;
    return 2;
  }

  std::atomic<int> adds{0};
  std::atomic<int> removes{0};
  std::atomic<int> secures{0};
  std::atomic<double> last_rate{0.0};
  std::atomic<bool> last_require_secure{false};
};

struct Rig {
  Rig() : server(target, pair.b), client(pair.a) { server.start(); }
  ~Rig() { server.stop(); }

  ShmTransport::Pair pair = ShmTransport::make_pair();
  FakeAbc target;
  AbcServer server;
  RemoteAbc client;
};

TEST(RemoteAbc, SenseRoundTripsTheSnapshot) {
  Rig rig;
  const am::Sensors s = rig.client.sense();
  EXPECT_TRUE(s.valid);
  EXPECT_DOUBLE_EQ(s.arrival_rate, 1.5);
  EXPECT_DOUBLE_EQ(s.departure_rate, 0.75);
  EXPECT_EQ(s.nworkers, 3u);
  EXPECT_EQ(s.new_failures, 2u);
}

TEST(RemoteAbc, ActuatorsReachTheTargetAndReturnOutcomes) {
  Rig rig;
  EXPECT_TRUE(rig.client.add_worker());
  EXPECT_EQ(rig.target.adds.load(), 1);

  EXPECT_TRUE(rig.client.remove_worker());
  EXPECT_FALSE(rig.client.remove_worker());  // target refused
  EXPECT_EQ(rig.target.removes.load(), 2);

  EXPECT_EQ(rig.client.rebalance(), 4u);

  EXPECT_TRUE(rig.client.set_rate(9.5));
  EXPECT_DOUBLE_EQ(rig.target.last_rate.load(), 9.5);

  EXPECT_EQ(rig.client.secure_links(), 2u);
  EXPECT_EQ(rig.target.secures.load(), 1);
  EXPECT_TRUE(rig.client.transport().secured());
}

TEST(RemoteAbc, TwoPhaseRequireSecureTravelsWithTheCommit) {
  Rig rig;
  // Phase one, client side: the security concern's gate annotates the
  // intent. Remote workers present as target-untrusted by default.
  rig.client.set_commit_gate([](am::Intent& i) {
    if (i.action == am::Intent::Action::AddWorker && i.target_untrusted)
      i.require_secure = true;
    return true;
  });
  ASSERT_TRUE(rig.client.add_worker());
  // Phase two, server side: the annotation arrived and reached the target's
  // own gate flow before the worker was instantiated.
  EXPECT_TRUE(rig.target.last_require_secure.load());
  EXPECT_EQ(rig.target.adds.load(), 1);
}

TEST(RemoteAbc, ClientGateVetoNeverCrossesTheWire) {
  Rig rig;
  rig.client.set_commit_gate([](am::Intent&) { return false; });
  EXPECT_FALSE(rig.client.add_worker());
  EXPECT_EQ(rig.target.adds.load(), 0);  // vetoed locally, no RPC sent
}

TEST(RemoteAbc, DeadChannelSensesAsBlackoutAndActuatorsFail) {
  Rig rig;
  rig.server.stop();  // closes the transport
  const am::Sensors s = rig.client.sense();
  EXPECT_FALSE(s.valid);  // blackout, like a local reconfiguration window
  EXPECT_FALSE(rig.client.add_worker());
  EXPECT_EQ(rig.client.rebalance(), 0u);
}

TEST(RemoteAbc, RpcTimeoutExpiryReadsAsBlackout) {
  // Live channel, mute peer: each RPC waits out rpc_timeout_wall_s and then
  // degrades to the blackout/failure result instead of hanging the
  // manager's control loop forever.
  auto pair = ShmTransport::make_pair();
  RemoteAbcOptions opts;
  opts.rpc_timeout_wall_s = 0.1;
  RemoteAbc client(pair.a, opts);

  const double t0 = wall_now();
  const am::Sensors s = client.sense();
  const double waited = wall_now() - t0;
  EXPECT_FALSE(s.valid);
  EXPECT_GE(waited, 0.05);  // it did wait for the reply window
  EXPECT_LT(waited, 2.0);   // and gave up promptly after it
  EXPECT_FALSE(client.add_worker());
  EXPECT_EQ(client.rebalance(), 0u);
  EXPECT_FALSE(client.set_rate(1.0));
  EXPECT_EQ(client.secure_links(), 0u);
  EXPECT_TRUE(client.connected());  // a timeout is not a disconnect
  pair.a->close();
  pair.b->close();
}

TEST(RemoteAbc, StaleRepliesAreSkippedUntilTheMatchingSeq) {
  // A reply left over from a timed-out earlier RPC must not satisfy the
  // current one: the client filters by sequence number.
  auto pair = ShmTransport::make_pair();
  RemoteAbc client(pair.a);
  ActReply stale;
  stale.seq = 9999;  // matches nothing
  stale.ok = true;
  ASSERT_TRUE(pair.b->send(make_act_rep(stale)));
  ActReply fresh;
  fresh.seq = 1;  // the client's first call
  fresh.ok = true;
  fresh.count = 1;
  ASSERT_TRUE(pair.b->send(make_act_rep(fresh)));
  EXPECT_TRUE(client.add_worker());
  pair.a->close();
  pair.b->close();
}

TEST(RemoteAbc, PeerDeathMidStreamFailsFastAfterwards) {
  Rig rig;
  EXPECT_TRUE(rig.client.add_worker());
  rig.server.stop();  // the remote process "dies" between two RPCs
  const double t0 = wall_now();
  EXPECT_FALSE(rig.client.add_worker());
  EXPECT_FALSE(rig.client.sense().valid);
  // Dead connection short-circuits: no rpc_timeout-long stall per call.
  EXPECT_LT(wall_now() - t0, 2.0);
}

TEST(RemoteAbc, ManagerRunsUnchangedAgainstARemoteAbc) {
  // The real point of the shim: am::AutonomicManager monitors a remote
  // skeleton with zero changes — here one monitor cycle asserting beans
  // from the RPC'd snapshot (including WorkerFailureBean from
  // new_failures).
  Rig rig;
  support::EventLog log;
  am::ManagerConfig mc;
  mc.period = support::SimDuration(0.05);
  am::AutonomicManager mgr("AM_remote", rig.client, mc, &log);
  mgr.start();
  const double deadline = wall_now() + 5.0;
  while (log.count("AM_remote", "workerFail") == 0 && wall_now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  mgr.stop();
  EXPECT_GE(log.count("AM_remote", "workerFail"), 1u);
}

}  // namespace
}  // namespace bsk::net

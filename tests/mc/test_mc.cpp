// bsk-verify internals: the explorer on toy models, the gossip/resume
// models at unit budgets, the scripted law scenarios against every seeded
// defect, and the CRDT law checker.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/mc/crdt_check.hpp"
#include "analysis/mc/explorer.hpp"
#include "analysis/mc/gossip_model.hpp"
#include "analysis/mc/resume_model.hpp"

namespace bsk::analysis::mc {
namespace {

// ------------------------------------------------------------- explorer

/// Two independent bounded counters: 3x3 = 9 distinct states, and the
/// increments commute, so sleep sets should prune one of every diamond.
struct ToyModel {
  struct State {
    int a = 0, b = 0;
  };
  struct Action {
    int which = 0;  // 0 = ++a, 1 = ++b
  };
  int limit = 2;
  int poison_sum = -1;  ///< check() fails when a+b reaches this

  std::vector<Action> enabled(const State& s) const {
    std::vector<Action> out;
    if (s.a < limit) out.push_back({0});
    if (s.b < limit) out.push_back({1});
    return out;
  }
  std::optional<Violation> apply(State& s, const Action& x) const {
    (x.which == 0 ? s.a : s.b)++;
    return std::nullopt;
  }
  std::optional<Violation> check(const State& s) const {
    if (s.a + s.b == poison_sum)
      return Violation{"toy-poison", "sum reached " +
                                         std::to_string(poison_sum)};
    return std::nullopt;
  }
  std::string fingerprint(const State& s) const {
    return std::to_string(s.a) + "," + std::to_string(s.b);
  }
  std::uint64_t action_key(const Action& x) const { return x.which; }
  bool independent(const Action& x, const Action& y) const {
    return x.which != y.which;
  }
  std::string describe(const Action& x) const {
    return x.which == 0 ? "inc-a" : "inc-b";
  }
};

TEST(Explorer, VisitsEveryInterleavingOnce) {
  ToyModel m;
  const ExploreResult r = explore(m, ToyModel::State{});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.stats.states_explored, 9u);  // (limit+1)^2 distinct states
  EXPECT_FALSE(r.stats.truncated);
  // Sleep sets + dedup: strictly fewer transitions than the 12-edge full
  // lattice walked naively from every predecessor.
  EXPECT_GE(r.stats.sleep_pruned + r.stats.deduped, 1u);
}

TEST(Explorer, ViolationYieldsTrace) {
  ToyModel m;
  m.poison_sum = 3;
  const ExploreResult r = explore(m, ToyModel::State{});
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.violation.property, "toy-poison");
  EXPECT_EQ(r.trace.size(), 3u);  // three increments reach sum 3
}

TEST(Explorer, DepthBoundReportsTruncation) {
  ToyModel m;
  m.limit = 10;
  ExploreOptions eo;
  eo.max_depth = 4;
  const ExploreResult r = explore(m, ToyModel::State{}, eo);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.stats.truncated);
}

// --------------------------------------------------------- gossip model

TEST(GossipModel, CleanProtocolPassesSmallExplore) {
  GossipOptions go;
  go.n = 2;
  go.rounds = 1;
  const ExploreResult r = run_gossip_explore(go);
  EXPECT_TRUE(r.ok) << r.violation.property << ": " << r.violation.detail;
  EXPECT_GT(r.stats.states_explored, 10u);
  EXPECT_FALSE(r.stats.truncated);
}

TEST(GossipModel, LawsHoldOnCleanProtocol) {
  EXPECT_FALSE(run_gossip_laws(cluster::GossipDefect::None).has_value());
}

TEST(GossipModel, LawsCatchEverySeededDefect) {
  for (const auto d :
       {cluster::GossipDefect::DropTombstones,
        cluster::GossipDefect::DeltaBoundary,
        cluster::GossipDefect::SkipRepair}) {
    const auto v = run_gossip_laws(d);
    EXPECT_TRUE(v.has_value()) << "defect " << static_cast<int>(d)
                               << " slipped through the law scenarios";
  }
}

TEST(GossipModel, ExplorerCatchesDroppedTombstones) {
  GossipOptions go;
  go.rounds = 1;
  go.defect = cluster::GossipDefect::DropTombstones;
  const ExploreResult r = run_gossip_explore(go);
  ASSERT_FALSE(r.ok);
  EXPECT_FALSE(r.trace.empty());
}

// --------------------------------------------------------- resume model

TEST(ResumeModel, CleanProtocolPassesSmallExplore) {
  ResumeOptions ro;
  ro.tasks = 2;
  ro.window = 2;
  const ExploreResult r = run_resume_explore(ro);
  EXPECT_TRUE(r.ok) << r.violation.property << ": " << r.violation.detail;
  EXPECT_GT(r.stats.states_explored, 100u);
  EXPECT_FALSE(r.stats.truncated);
}

TEST(ResumeModel, FaultFreeWindowedRunIsClean) {
  ResumeOptions ro;
  ro.tasks = 3;
  ro.drops = 0;
  ro.dups = 0;
  ro.kills = 0;
  const ExploreResult r = run_resume_explore(ro);
  EXPECT_TRUE(r.ok) << r.violation.property << ": " << r.violation.detail;
}

// ----------------------------------------------------------- crdt laws

TEST(CrdtLaws, HoldAcrossSeededCases) {
  const CrdtResult r = run_crdt_check(CrdtOptions{});
  EXPECT_TRUE(r.ok) << r.violation.property << ": " << r.violation.detail;
  EXPECT_GT(r.checks, 1000u);
}

}  // namespace
}  // namespace bsk::analysis::mc

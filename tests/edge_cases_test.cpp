// Edge-case coverage across modules: behaviours distinct from the main
// suites — NULL ordering, boundary geometry, degenerate workloads,
// scale-down elasticity, SQL corner semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "cloud/cluster.hpp"
#include "cloud/sim.hpp"
#include "dock/cluster.hpp"
#include "dock/grid.hpp"
#include "dock/scoring.hpp"
#include "mol/geometry.hpp"
#include "mol/torsion.hpp"
#include "sql/engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "wf/sim_executor.hpp"

namespace scidock {
namespace {

// ------------------------------------------------------------------ SQL

class SqlEdge : public ::testing::Test {
 protected:
  void SetUp() override {
    engine = std::make_unique<sql::Engine>(db);
    engine->execute("CREATE TABLE t (a int, s varchar(10))");
    engine->execute("INSERT INTO t VALUES (3, 'b'), (NULL, 'a'), (1, NULL)");
  }
  sql::Database db;
  std::unique_ptr<sql::Engine> engine;
};

TEST_F(SqlEdge, OrderBySortsNullsFirst) {
  const auto rs = engine->execute("SELECT a FROM t ORDER BY a");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_TRUE(rs.rows[0][0].is_null());
  EXPECT_EQ(rs.rows[1][0].as_int(), 1);
  EXPECT_EQ(rs.rows[2][0].as_int(), 3);
}

TEST_F(SqlEdge, MinMaxIgnoreNulls) {
  const auto rs = engine->execute("SELECT min(a), max(a), avg(a) FROM t");
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
  EXPECT_EQ(rs.rows[0][1].as_int(), 3);
  EXPECT_DOUBLE_EQ(rs.rows[0][2].as_double(), 2.0);  // avg over non-null
}

TEST_F(SqlEdge, GroupByNullFormsItsOwnGroup) {
  const auto rs = engine->execute(
      "SELECT s, count(*) FROM t GROUP BY s ORDER BY s");
  ASSERT_EQ(rs.rows.size(), 3u);  // NULL, 'a', 'b'
}

TEST_F(SqlEdge, LikeEdgePatterns) {
  sql::Database db2;
  sql::Engine e2(db2);
  e2.execute("CREATE TABLE p (x varchar(20))");
  e2.execute("INSERT INTO p VALUES ('abc'), (''), ('a%c'), ('axc')");
  EXPECT_EQ(e2.execute("SELECT count(*) FROM p WHERE x LIKE ''").rows[0][0].as_int(), 1);
  EXPECT_EQ(e2.execute("SELECT count(*) FROM p WHERE x LIKE '%'").rows[0][0].as_int(), 4);
  EXPECT_EQ(e2.execute("SELECT count(*) FROM p WHERE x LIKE 'a_c'").rows[0][0].as_int(), 3);
  EXPECT_EQ(e2.execute("SELECT count(*) FROM p WHERE x LIKE '%b%'").rows[0][0].as_int(), 1);
}

TEST_F(SqlEdge, ExtractDerivedFields) {
  // 1 day, 2 hours, 3 minutes, 4 seconds past the epoch.
  const double secs = 86400.0 + 2 * 3600.0 + 3 * 60.0 + 4.0;
  sql::Database db2;
  sql::Engine e2(db2);
  e2.execute("CREATE TABLE ts (t float)");
  e2.execute(strformat("INSERT INTO ts VALUES (%.1f)", secs));
  const auto rs = e2.execute(
      "SELECT extract('day' from t), extract('hour' from t), "
      "extract('minute' from t), extract('epoch' from t) FROM ts");
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 1.0);
  EXPECT_DOUBLE_EQ(rs.rows[0][1].as_double(), 2.0);
  EXPECT_DOUBLE_EQ(rs.rows[0][2].as_double(), 3.0);
  EXPECT_DOUBLE_EQ(rs.rows[0][3].as_double(), secs);
}

TEST_F(SqlEdge, ArithmeticOverAggregates) {
  const auto rs = engine->execute("SELECT avg(a) * 60 + 1 FROM t");
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 121.0);
}

TEST_F(SqlEdge, CrossJoinWithoutPredicate) {
  sql::Database db2;
  sql::Engine e2(db2);
  e2.execute("CREATE TABLE a (x int)");
  e2.execute("CREATE TABLE b (y int)");
  e2.execute("INSERT INTO a VALUES (1), (2), (3)");
  e2.execute("INSERT INTO b VALUES (10), (20)");
  EXPECT_EQ(e2.execute("SELECT x, y FROM a, b").rows.size(), 6u);
}

TEST_F(SqlEdge, ParserRejectsMalformedInBetween) {
  EXPECT_THROW(engine->execute("SELECT a FROM t WHERE a IN ()"), ParseError);
  EXPECT_THROW(engine->execute("SELECT a FROM t WHERE a NOT 3"), ParseError);
  EXPECT_THROW(engine->execute("SELECT a FROM t WHERE a BETWEEN 1"), ParseError);
}

// ------------------------------------------------------------- geometry

TEST(GeometryEdge, QuaternionOfZeroAngleIsIdentity) {
  const mol::Quaternion q = mol::Quaternion::from_axis_angle({1, 2, 3}, 0.0);
  const mol::Vec3 v{4, 5, 6};
  EXPECT_NEAR(mol::distance(q.rotate(v), v), 0.0, 1e-12);
}

TEST(GeometryEdge, FullTurnReturnsToStart) {
  const mol::Quaternion q =
      mol::Quaternion::from_axis_angle({0, 1, 0}, 2.0 * std::numbers::pi);
  const mol::Vec3 v{1, 0, 0};
  EXPECT_NEAR(mol::distance(q.rotate(v), v), 0.0, 1e-9);
}

TEST(GeometryEdge, TorsionApplyIsPeriodic) {
  // Rotating a branch by 2*pi reproduces the original coordinates.
  mol::Molecule m{"chain"};
  for (int i = 0; i < 6; ++i) {
    mol::Atom a;
    a.element = mol::Element::C;
    a.pos = {i * 1.5, 0.3 * (i % 2), 0.0};
    m.add_atom(a);
  }
  for (int i = 0; i + 1 < 6; ++i) m.add_bond(i, i + 1);
  m.perceive();
  const mol::TorsionTree tree = mol::TorsionTree::build(m);
  ASSERT_GT(tree.torsion_count(), 0);
  const auto ref = m.coordinates();
  std::vector<double> full_turn(
      static_cast<std::size_t>(tree.torsion_count()), 2.0 * std::numbers::pi);
  const auto out = tree.apply(ref, mol::Pose{}, full_turn);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(mol::distance(ref[i], out[i]), 0.0, 1e-9);
  }
}

// ----------------------------------------------------------------- grid

TEST(GridEdge, SamplingIsContinuousAcrossCellBoundaries) {
  dock::GridBox box;
  box.npts = {5, 5, 5};
  box.spacing = 1.0;
  dock::GridMap map(box, "C");
  Rng rng(13);
  for (float& v : map.values()) v = static_cast<float>(rng.uniform(-5.0, 5.0));
  // Approach a grid plane from both sides: trilinear interpolation must
  // agree at the boundary.
  const mol::Vec3 on_plane{0.0, 0.3, -0.7};
  const double below = map.sample(on_plane - mol::Vec3{1e-9, 0, 0});
  const double above = map.sample(on_plane + mol::Vec3{1e-9, 0, 0});
  EXPECT_NEAR(below, above, 1e-6);
  // And exactly on a grid point it returns the stored value.
  EXPECT_NEAR(map.sample(box.origin()), map.at(0, 0, 0), 1e-12);
}

TEST(GridEdge, MinimalTwoPointGrid) {
  dock::GridBox box;
  box.npts = {2, 2, 2};
  box.spacing = 2.0;
  dock::GridMap map(box, "e");
  map.at(0, 0, 0) = -1.0;
  map.at(1, 1, 1) = 1.0;
  EXPECT_NEAR(map.sample(box.center), 0.0, 0.26);  // centre of the cell
}

// ---------------------------------------------------------------- cloud

TEST(CloudEdge, EmptySimulationRunsToZero) {
  cloud::Simulation sim;
  EXPECT_DOUBLE_EQ(sim.run(), 0.0);
  EXPECT_TRUE(sim.empty());
}

TEST(CloudEdge, SimExecutorOnEmptyRelation) {
  wf::Pipeline p;
  p.add_stage(wf::Stage{"a", wf::AlgebraicOp::Map, nullptr, nullptr, nullptr, nullptr});
  cloud::CostModel model;
  model.set_cost({"a", 1.0, 0.1, 0.1});
  wf::SimExecutorOptions opts;
  opts.fleet = wf::m3_fleet_for_cores(4);
  const wf::SimReport r =
      wf::SimulatedExecutor(p, model, opts).run(wf::Relation{{"id"}});
  EXPECT_EQ(r.tuples_completed, 0);
  EXPECT_EQ(r.activations_finished, 0);
}

TEST(CloudEdge, ElasticityReleasesIdleVmsWhenQueueDrains) {
  // A workload far smaller than max_vms: the controller must not hold
  // every VM until the end.
  wf::Pipeline p;
  p.add_stage(wf::Stage{"a", wf::AlgebraicOp::Map, nullptr, nullptr, nullptr, nullptr});
  cloud::CostModel model;
  model.set_cost({"a", 2000.0, 0.2, 1.0});  // long tasks keep the sim alive
  wf::Relation rel{{"id"}};
  for (int i = 0; i < 64; ++i) {
    wf::Tuple t;
    t.set("id", std::to_string(i));
    rel.add(std::move(t));
  }
  wf::SimExecutorOptions opts;
  opts.fleet = {cloud::vm_type_m3_xlarge()};
  opts.failure.failure_probability = 0.0;
  opts.failure.hang_probability = 0.0;
  opts.elasticity = true;
  opts.min_vms = 1;
  opts.max_vms = 12;
  opts.elastic_vm_type = cloud::vm_type_m3_xlarge();
  opts.elasticity_period_s = 60.0;
  const wf::SimReport r = wf::SimulatedExecutor(p, model, opts).run(rel);
  EXPECT_EQ(r.tuples_completed, 64);
  EXPECT_GT(r.peak_alive_vms, 1);  // scaled up while the queue was deep
}

TEST(CloudEdge, CostModelLognormalFloorApplies) {
  cloud::CostModel model;
  model.set_cost({"x", 0.5, 2.5, 0.4});  // heavy-tailed, aggressive floor
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(model.sample("x", 1.0, 1.0, rng), 0.4);
  }
}

// ----------------------------------------------------------- scoring

TEST(ScoringEdge, Ad4EnergyAtContactDistanceZeroIsClamped) {
  // Coincident atoms must not produce inf/NaN.
  const double e = dock::ad4_pair_energy(mol::AdType::C, 0.3, mol::AdType::OA,
                                         -0.3, 0.0);
  EXPECT_TRUE(std::isfinite(e));
  EXPECT_GT(e, 0.0);  // strongly repulsive, but bounded
}

TEST(ScoringEdge, ClusteringSingleConformation) {
  std::vector<dock::Conformation> confs(1);
  confs[0].coords = {{0, 0, 0}};
  confs[0].feb = -5.0;
  EXPECT_EQ(dock::cluster_conformations(confs), 1);
  EXPECT_EQ(confs[0].cluster, 0);
}

}  // namespace
}  // namespace scidock

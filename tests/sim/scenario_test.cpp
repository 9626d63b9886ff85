#include "nbtinoc/sim/scenario.hpp"

#include <gtest/gtest.h>

#include "nbtinoc/util/properties.hpp"

namespace nbtinoc::sim {
namespace {

TEST(Technology, NodePresets) {
  EXPECT_DOUBLE_EQ(Technology::node_45nm().vth_nominal_v, 0.180);
  EXPECT_DOUBLE_EQ(Technology::node_32nm().vth_nominal_v, 0.160);
  EXPECT_EQ(Technology::node_45nm().node_nm, 45);
  EXPECT_EQ(Technology::node_32nm().node_nm, 32);
}

TEST(Scenario, SyntheticFactory) {
  const Scenario s = Scenario::synthetic(4, 2, 0.3);
  EXPECT_EQ(s.cores(), 16);
  EXPECT_EQ(s.num_vcs, 2);
  EXPECT_DOUBLE_EQ(s.injection_rate, 0.3);
  EXPECT_EQ(s.name, "16core-inj0.30");
}

TEST(Scenario, PvSeedIndependentOfPolicyButNotOfArch) {
  const Scenario a = Scenario::synthetic(2, 4, 0.1);
  const Scenario b = Scenario::synthetic(2, 4, 0.1);
  EXPECT_EQ(a.pv_seed(), b.pv_seed());
  EXPECT_NE(a.pv_seed(), Scenario::synthetic(4, 4, 0.1).pv_seed());
  EXPECT_NE(a.pv_seed(), Scenario::synthetic(2, 2, 0.1).pv_seed());
  EXPECT_NE(a.pv_seed(), Scenario::synthetic(2, 4, 0.2).pv_seed());
}

TEST(Scenario, TrafficSeedStable) {
  EXPECT_EQ(Scenario::synthetic(2, 2, 0.2).traffic_seed(),
            Scenario::synthetic(2, 2, 0.2).traffic_seed());
  EXPECT_NE(Scenario::synthetic(2, 2, 0.2).traffic_seed(),
            Scenario::synthetic(2, 2, 0.3).traffic_seed());
}

TEST(Scenario, PaperScaleMatchesSection4B) {
  Scenario s4 = Scenario::synthetic(2, 2, 0.1);
  s4.use_paper_scale();
  EXPECT_EQ(s4.warmup_cycles, 6'000'000u);
  EXPECT_EQ(s4.total_cycles(), 30'000'000u);

  Scenario s16 = Scenario::synthetic(4, 2, 0.1);
  s16.use_paper_scale();
  EXPECT_EQ(s16.warmup_cycles, 9'000'000u);
  EXPECT_EQ(s16.total_cycles(), 30'000'000u);
}

TEST(Scenario, PhitsPerFlit) {
  Scenario s;
  EXPECT_EQ(s.phits_per_flit(), 2);  // 64b flit over 32b link
  s.link_width_bits = 64;
  EXPECT_EQ(s.phits_per_flit(), 1);
  s.link_width_bits = 16;
  EXPECT_EQ(s.phits_per_flit(), 4);
  s.flit_width_bits = 65;
  s.link_width_bits = 32;
  EXPECT_EQ(s.phits_per_flit(), 3);  // ceiling
}

TEST(ScenarioFromProperties, DefaultsWhenEmpty) {
  const Scenario s = scenario_from_properties({});
  EXPECT_EQ(s.mesh_width, 2);
  EXPECT_EQ(s.num_vcs, 4);
  EXPECT_EQ(s.tech.node_nm, 45);
  EXPECT_DOUBLE_EQ(s.clock_period_s, 1e-9);
  EXPECT_EQ(s.name, "4core-inj0.10");
}

TEST(ScenarioFromProperties, ParsesAllKnownKeys) {
  const Scenario s = scenario_from_properties({{"name", "study"},
                                               {"mesh_width", "4"},
                                               {"mesh_height", "2"},
                                               {"num_vcs", "2"},
                                               {"num_vnets", "2"},
                                               {"buffer_depth", "8"},
                                               {"flit_width_bits", "128"},
                                               {"link_width_bits", "32"},
                                               {"packet_length", "5"},
                                               {"injection_rate", "0.25"},
                                               {"wakeup_latency", "3"},
                                               {"warmup_cycles", "1000"},
                                               {"measure_cycles", "5000"},
                                               {"clock_ghz", "2"},
                                               {"technology_nm", "32"},
                                               {"vth_sigma_v", "0.004"},
                                               {"temperature_k", "360"},
                                               {"vdd_v", "1.1"}});
  EXPECT_EQ(s.name, "study");
  EXPECT_EQ(s.mesh_width, 4);
  EXPECT_EQ(s.mesh_height, 2);
  EXPECT_EQ(s.num_vnets, 2);
  EXPECT_EQ(s.phits_per_flit(), 4);  // 128b flit over 32b link
  EXPECT_EQ(s.wakeup_latency, 3u);
  EXPECT_DOUBLE_EQ(s.clock_period_s, 0.5e-9);
  EXPECT_DOUBLE_EQ(s.tech.vth_nominal_v, 0.160);  // 32nm preset
  EXPECT_DOUBLE_EQ(s.tech.vth_sigma_v, 0.004);
  EXPECT_DOUBLE_EQ(s.tech.temperature_k, 360.0);
  EXPECT_DOUBLE_EQ(s.tech.vdd_v, 1.1);
}

TEST(ScenarioFromProperties, RouterStages) {
  EXPECT_EQ(scenario_from_properties({}).router_stages, 3);
  EXPECT_EQ(scenario_from_properties({{"router_stages", "5"}}).router_stages, 5);
  EXPECT_THROW(scenario_from_properties({{"router_stages", "2"}}), std::invalid_argument);
}

TEST(ScenarioFromProperties, MeshHeightDefaultsToWidth) {
  const Scenario s = scenario_from_properties({{"mesh_width", "4"}});
  EXPECT_EQ(s.mesh_height, 4);
}

TEST(ScenarioFromProperties, RejectsUnknownKeyAndBadValues) {
  EXPECT_THROW(scenario_from_properties({{"mesh_widht", "4"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_properties({{"technology_nm", "28"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_properties({{"clock_ghz", "0"}}), std::invalid_argument);
  // Scenario-file numbers parse whole or not at all: read as a prefix,
  // "1e6" would measure one cycle and "-5" warmup cycles would wrap to ~2^64.
  for (const char* text : {"measure_cycles = 1e6\n", "injection_rate = 0.2x\n",
                           "mesh_width = 4x4\n", "warmup_cycles = -5\n",
                           "measure_cycles = -1\n", "measure_cycles =\n",
                           "num_vcs = 4294967300\n"})
    EXPECT_THROW(scenario_from_properties(util::parse_properties(text)), std::invalid_argument)
        << text;
}

TEST(Scenario, FaultSeedStableAndDistinctFromOtherStreams) {
  const Scenario a = Scenario::synthetic(2, 2, 0.2);
  EXPECT_EQ(a.fault_seed(), Scenario::synthetic(2, 2, 0.2).fault_seed());
  EXPECT_NE(a.fault_seed(), Scenario::synthetic(4, 2, 0.2).fault_seed());
  EXPECT_NE(a.fault_seed(), Scenario::synthetic(2, 2, 0.3).fault_seed());
  // Dedicated stream: never collides with the PV or traffic streams.
  EXPECT_NE(a.fault_seed(), a.pv_seed());
  EXPECT_NE(a.fault_seed(), a.traffic_seed());
}

TEST(Scenario, ValidateAcceptsEveryFactoryOutput) {
  EXPECT_NO_THROW(Scenario{}.validate());
  EXPECT_NO_THROW(Scenario::synthetic(2, 2, 0.1).validate());
  EXPECT_NO_THROW(Scenario::synthetic(4, 4, 1.0).validate());
}

TEST(Scenario, ValidateRejectsImpossibleConfigs) {
  const auto broken = [](void (*mutate)(Scenario&)) {
    Scenario s = Scenario::synthetic(2, 2, 0.1);
    mutate(s);
    return s;
  };
  EXPECT_THROW(broken([](Scenario& s) { s.mesh_width = 0; }).validate(), std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.mesh_width = s.mesh_height = 1; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.num_vcs = 0; }).validate(), std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.num_vnets = 0; }).validate(), std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.buffer_depth = 0; }).validate(), std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.link_width_bits = s.flit_width_bits + 1; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.packet_length = 0; }).validate(), std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.injection_rate = 1.5; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.injection_rate = -0.1; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.router_stages = 2; }).validate(), std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.measure_cycles = 0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.clock_period_s = 0.0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.tech.vdd_v = 0.0; }).validate(), std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.tech.vth_nominal_v = s.tech.vdd_v; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([](Scenario& s) { s.tech.vth_sigma_v = -0.001; }).validate(),
               std::invalid_argument);
}

TEST(Scenario, ValidateErrorsNameTheScenarioAndTheProblem) {
  Scenario s = Scenario::synthetic(2, 2, 0.1);
  s.name = "my-study";
  s.buffer_depth = 0;
  try {
    s.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("my-study"), std::string::npos) << what;
    EXPECT_NE(what.find("buffer_depth"), std::string::npos) << what;
    EXPECT_NE(what.find("0"), std::string::npos) << what;  // the offending value
  }
}

TEST(ScenarioFromProperties, RejectsNegativeWakeupLatency) {
  // Cycle is unsigned: -1 would otherwise wrap to ~2^64 cycles of wakeup.
  EXPECT_THROW(scenario_from_properties({{"wakeup_latency", "-1"}}), std::invalid_argument);
}

TEST(ScenarioFromProperties, ValidatesTheAssembledScenario) {
  EXPECT_THROW(scenario_from_properties({{"buffer_depth", "0"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_properties({{"mesh_width", "1"}, {"mesh_height", "1"}}),
               std::invalid_argument);
  EXPECT_THROW(scenario_from_properties({{"injection_rate", "2.0"}}), std::invalid_argument);
}

TEST(Scenario, ValidatesRoutingMode) {
  Scenario s = Scenario::synthetic(2, 2, 0.1);
  for (const char* mode : {"dor", "xy", "yx", "west-first", "odd-even"}) {
    s.routing = mode;
    EXPECT_NO_THROW(s.validate()) << mode;
  }
  s.routing = "zigzag";
  EXPECT_THROW(s.validate(), std::invalid_argument);
  // Adaptive modes are mesh-only and need an escape class + an adaptive
  // class, so one VC per vnet cannot host them.
  s.routing = "west-first";
  s.topology = "torus";
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.topology = "mesh";
  s.num_vcs = 1;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(Scenario, RoutingValidationErrorsAreActionable) {
  Scenario s = Scenario::synthetic(2, 1, 0.1);
  s.routing = "odd-even";
  try {
    s.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("odd-even"), std::string::npos) << what;
    EXPECT_NE(what.find("2 VCs"), std::string::npos) << what;
    EXPECT_NE(what.find("escape"), std::string::npos) << what;
  }
}

TEST(ScenarioFromProperties, ParsesRouting) {
  EXPECT_EQ(scenario_from_properties({}).routing, "dor");
  EXPECT_EQ(scenario_from_properties({{"routing", "odd-even"}}).routing, "odd-even");
  EXPECT_THROW(scenario_from_properties({{"routing", "zigzag"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_properties({{"routing", "west-first"}, {"num_vcs", "1"}}),
               std::invalid_argument);
}

TEST(Scenario, DescribeMentionsRoutingOnlyOffDefault) {
  Scenario s = Scenario::synthetic(2, 2, 0.1);
  EXPECT_EQ(s.describe().find("routing"), std::string::npos);
  s.routing = "west-first";
  EXPECT_NE(s.describe().find("west-first"), std::string::npos);
}

TEST(Scenario, DescribeMentionsKeyParameters) {
  const Scenario s = Scenario::synthetic(2, 4, 0.2);
  const std::string d = s.describe();
  EXPECT_NE(d.find("2x2"), std::string::npos);
  EXPECT_NE(d.find("4 VCs"), std::string::npos);
  EXPECT_NE(d.find("45nm"), std::string::npos);
  EXPECT_NE(d.find("0.2"), std::string::npos);
}

TEST(Scenario, ValidatesBufferOrg) {
  Scenario s = Scenario::synthetic(2, 2, 0.1);
  s.buffer_org = "shared";
  EXPECT_NO_THROW(s.validate());
  s.shared_reserve = s.buffer_depth;  // reserve may use the whole per-VC depth
  EXPECT_NO_THROW(s.validate());
  s.buffer_org = "damq";
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(Scenario, SharedOrgValidationErrorsAreActionable) {
  const auto what_of = [](const Scenario& s) -> std::string {
    try {
      s.validate();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };

  // A zero reserve would let gating starve a VC: deadlock safety demands >= 1.
  Scenario s = Scenario::synthetic(2, 2, 0.1);
  s.buffer_org = "shared";
  s.shared_reserve = 0;
  std::string what = what_of(s);
  EXPECT_NE(what.find("shared_reserve"), std::string::npos) << what;
  EXPECT_NE(what.find(">= 1"), std::string::npos) << what;
  EXPECT_NE(what.find("deadlock"), std::string::npos) << what;

  // Reserving more than the per-VC depth would pledge more slots than the
  // pool holds (reserve x VCs > pool).
  s.shared_reserve = s.buffer_depth + 1;
  what = what_of(s);
  EXPECT_NE(what.find("exceeds buffer_depth"), std::string::npos) << what;
  EXPECT_NE(what.find(std::to_string(s.buffer_depth + 1)), std::string::npos) << what;

  // A single-VC port has nothing to share.
  Scenario single = Scenario::synthetic(2, 1, 0.1);
  single.buffer_org = "shared";
  what = what_of(single);
  EXPECT_NE(what.find(">= 2 VCs"), std::string::npos) << what;
  EXPECT_NE(what.find("partitioned"), std::string::npos) << what;

  // The reserve knob is inert under partitioned buffers; a non-default
  // value there is a config mistake, not a silent no-op.
  Scenario part = Scenario::synthetic(2, 2, 0.1);
  part.shared_reserve = 2;
  what = what_of(part);
  EXPECT_NE(what.find("shared-organization knob"), std::string::npos) << what;
}

TEST(ScenarioFromProperties, ParsesBufferOrg) {
  EXPECT_EQ(scenario_from_properties({}).buffer_org, "partitioned");
  const Scenario s =
      scenario_from_properties({{"buffer_org", "shared"}, {"shared_reserve", "2"}});
  EXPECT_EQ(s.buffer_org, "shared");
  EXPECT_EQ(s.shared_reserve, 2);
  EXPECT_THROW(scenario_from_properties({{"buffer_org", "pooled"}}), std::invalid_argument);
  EXPECT_THROW(scenario_from_properties({{"buffer_org", "shared"}, {"num_vcs", "1"}}),
               std::invalid_argument);
}

TEST(Scenario, SharedOrgGetsItsOwnSeedStreams) {
  // Slot-count-changing organizations must not reuse partitioned silicon:
  // the golden seeds are tagged with the org and its reserve.
  const Scenario part = Scenario::synthetic(2, 2, 0.1);
  Scenario shared = part;
  shared.buffer_org = "shared";
  EXPECT_NE(part.pv_seed(), shared.pv_seed());
  EXPECT_NE(part.traffic_seed(), shared.traffic_seed());
  EXPECT_NE(part.fault_seed(), shared.fault_seed());
  Scenario deeper = shared;
  deeper.shared_reserve = 2;
  EXPECT_NE(shared.pv_seed(), deeper.pv_seed());
  // Determinism: the tagged streams are still pure functions of the scenario.
  Scenario again = part;
  again.buffer_org = "shared";
  EXPECT_EQ(shared.pv_seed(), again.pv_seed());
}

TEST(Scenario, DescribeMentionsBufferOrgOnlyOffDefault) {
  Scenario s = Scenario::synthetic(2, 2, 0.1);
  EXPECT_EQ(s.describe().find("DAMQ"), std::string::npos);
  s.buffer_org = "shared";
  const std::string d = s.describe();
  EXPECT_NE(d.find("shared DAMQ pool"), std::string::npos);
  EXPECT_NE(d.find("1 flit(s)/VC reserved"), std::string::npos);
}

}  // namespace
}  // namespace nbtinoc::sim

// Typed method-list errors: validate_methods() reports a bad method
// list without throwing, and the engine constructor throws the same
// typed diagnosis (while still deriving std::invalid_argument for
// legacy catch sites).
#include "engine/scheduler.hpp"

#include <gtest/gtest.h>

#include "core/test_helpers.hpp"
#include "engine/engine.hpp"

namespace tme::engine {
namespace {

using core::testing::SmallNetwork;
using core::testing::tiny_network;

TEST(SchedulerConfig, ValidateReturnsTypedErrorWithoutThrowing) {
    const SchedulerConfigCheck ok = validate_methods(
        {Method::gravity, Method::vardi, Method::fanout});
    EXPECT_TRUE(ok.ok());
    EXPECT_TRUE(static_cast<bool>(ok));
    EXPECT_EQ(ok.error, SchedulerConfigError::none);
    EXPECT_EQ(ok.message(), "ok");

    const SchedulerConfigCheck dup = validate_methods(
        {Method::gravity, Method::vardi, Method::vardi});
    EXPECT_FALSE(dup.ok());
    EXPECT_EQ(dup.error, SchedulerConfigError::duplicate_method);
    // The diagnosis names the offending method.
    EXPECT_EQ(dup.offender, Method::vardi);
    EXPECT_NE(dup.message().find("vardi"), std::string::npos);

    const SchedulerConfigCheck empty =
        validate_methods({});
    EXPECT_FALSE(empty.ok());
    EXPECT_EQ(empty.error, SchedulerConfigError::no_methods);
}

TEST(SchedulerConfig, EngineConstructorThrowsTheSameTypedDiagnosis) {
    const SmallNetwork net = tiny_network();
    EngineConfig config;
    config.methods = {Method::fanout, Method::gravity, Method::fanout};
    try {
        OnlineEngine engine(net.topo, net.routing, config);
        FAIL() << "duplicate method list not rejected";
    } catch (const SchedulerConfigException& e) {
        EXPECT_EQ(e.check().error,
                  SchedulerConfigError::duplicate_method);
        EXPECT_EQ(e.check().offender, Method::fanout);
        EXPECT_NE(std::string(e.what()).find("fanout"),
                  std::string::npos);
    }
    // Legacy catch sites keep working: the typed exception IS an
    // invalid_argument.
    config.methods = {};
    EXPECT_THROW(OnlineEngine(net.topo, net.routing, config),
                 std::invalid_argument);
    // Pooled engines validate identically.
    config.methods = {Method::bayesian, Method::bayesian};
    config.threads = 2;
    try {
        OnlineEngine engine(net.topo, net.routing, config);
        FAIL() << "duplicate method list not rejected";
    } catch (const SchedulerConfigException& e) {
        EXPECT_EQ(e.check().error,
                  SchedulerConfigError::duplicate_method);
        EXPECT_EQ(e.check().offender, Method::bayesian);
    }
    // Callers that validate up front never reach the throw: this is
    // the non-throwing rejection path an ingestion loop should use.
    ASSERT_FALSE(validate_methods(config.methods));
}

}  // namespace
}  // namespace tme::engine

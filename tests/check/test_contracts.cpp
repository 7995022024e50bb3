// Contract-layer tests: each validator throws a typed
// check::ContractViolation on corrupted input, the macros respect the
// compile-time gate and the runtime arm switch, and the wiring into the
// estimation path catches injected NaNs at the boundary where they
// enter — not three solvers downstream.  A compiled-out or suspended
// site never evaluates its argument (the release-native preset runs
// this file with TME_CONTRACTS=0); bench_perf_solvers gates that
// estimates are bitwise identical with contracts armed and suspended.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "check/contract.hpp"
#include "check/validators.hpp"
#include "core/gravity.hpp"
#include "core/problem.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/nnls.hpp"
#include "linalg/sparse.hpp"
#include "core/test_helpers.hpp"

namespace {

using namespace tme;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(ContractMacro, ThrowsTypedViolationWhenCompiledIn) {
    if (!check::contracts_compiled()) {
        EXPECT_NO_THROW(TME_CONTRACT(1 == 2, "compiled out"));
        GTEST_SKIP() << "contracts compiled out in this configuration";
    }
    EXPECT_NO_THROW(TME_CONTRACT(1 == 1, "holds"));
    try {
        TME_CONTRACT(1 == 2, "one is not two");
        FAIL() << "TME_CONTRACT did not throw";
    } catch (const check::ContractViolation& e) {
        EXPECT_STREQ(e.condition(), "1 == 2");
        EXPECT_NE(std::string(e.what()).find("one is not two"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("contract violated"),
                  std::string::npos);
        EXPECT_GT(e.line(), 0);
    }
}

TEST(ContractMacro, SuspensionDisarmsEverySite) {
    if (!check::contracts_compiled()) {
        GTEST_SKIP() << "contracts compiled out in this configuration";
    }
    ASSERT_TRUE(check::contracts_armed());
    {
        check::ScopedContractSuspend off;
        EXPECT_FALSE(check::contracts_armed());
        EXPECT_NO_THROW(TME_CONTRACT(1 == 2, "suspended"));
        EXPECT_NO_THROW(TME_CONTRACT_CHECK(
            check::finite(linalg::Vector{kNaN}, "suspended vector")));
    }
    EXPECT_TRUE(check::contracts_armed());
}

TEST(ContractMacro, InactiveSitesNeverEvaluateTheirArgument) {
    // Each argument bumps `evaluated`; a site may evaluate only when its
    // tier is compiled in and contracts are armed.
    int evaluated = 0;
    [[maybe_unused]] const auto holds = [&evaluated] {
        return ++evaluated > 0;
    };
    const auto run_all_sites = [&] {
        TME_CONTRACT(holds(), "cheap predicate");
        TME_CONTRACT_CHECK(static_cast<void>(holds()));
        TME_CONTRACT_DBG(holds(), "expensive predicate");
        TME_CONTRACT_DBG_CHECK(static_cast<void>(holds()));
    };
    const int armed_sites = (check::contracts_compiled() ? 2 : 0) +
                            (check::contracts_dbg_compiled() ? 2 : 0);

    run_all_sites();
    EXPECT_EQ(evaluated, armed_sites);

    evaluated = 0;
    {
        check::ScopedContractSuspend off;
        run_all_sites();
    }
    EXPECT_EQ(evaluated, 0);

    if (!check::contracts_compiled()) {
        // Compiled out: no site evaluates, armed or not.
        EXPECT_FALSE(check::contracts_dbg_compiled());
        EXPECT_EQ(armed_sites, 0);
    }
}

TEST(Validators, CsrStructureCatchesEachCorruption) {
    // A well-formed 2x3 view passes.
    const std::vector<std::size_t> good_off = {0, 2, 3};
    const std::vector<std::size_t> good_col = {0, 2, 1};
    const std::vector<double> val = {1.0, 2.0, 3.0};
    linalg::CsrView v;
    v.rows = 2;
    v.cols = 3;
    v.offsets = good_off.data();
    v.col_index = good_col.data();
    v.values = val.data();
    EXPECT_NO_THROW(check::csr_structure(v, "good"));

    // Non-monotone row_ptr.
    const std::vector<std::size_t> bad_off = {0, 3, 2};
    v.offsets = bad_off.data();
    EXPECT_THROW(check::csr_structure(v, "rowptr"),
                 check::ContractViolation);
    v.offsets = good_off.data();

    // Out-of-bounds column index.
    const std::vector<std::size_t> oob_col = {0, 7, 1};
    v.col_index = oob_col.data();
    EXPECT_THROW(check::csr_structure(v, "oob"),
                 check::ContractViolation);

    // Unsorted (non-ascending) column indices within a row.
    const std::vector<std::size_t> unsorted_col = {2, 0, 1};
    v.col_index = unsorted_col.data();
    EXPECT_THROW(check::csr_structure(v, "unsorted"),
                 check::ContractViolation);

    // nnz bookkeeping mismatch is caught on the owning-matrix overload
    // (from_csr itself rejects it, which is the same boundary).
    EXPECT_THROW(linalg::SparseMatrix::from_csr(2, 3, {0, 2, 4},
                                                {0, 2, 1}, {1, 2, 3}),
                 std::invalid_argument);
}

TEST(Validators, FiniteCatchesNaNAndInf) {
    EXPECT_NO_THROW(check::finite(linalg::Vector{1.0, 0.0}, "ok"));
    EXPECT_THROW(check::finite(linalg::Vector{1.0, kNaN}, "nan vec"),
                 check::ContractViolation);
    EXPECT_THROW(
        check::finite(linalg::Vector{
                          1.0, std::numeric_limits<double>::infinity()},
                      "inf vec"),
        check::ContractViolation);

    linalg::Matrix m(2, 2, 1.0);
    EXPECT_NO_THROW(check::finite(m, "ok matrix"));
    m(1, 0) = kNaN;
    EXPECT_THROW(check::finite(m, "nan matrix"),
                 check::ContractViolation);
}

TEST(Validators, NonnegativityUsesScaleRelativeTolerance) {
    // Active-set noise at solver precision passes...
    linalg::Vector x{100.0, -1e-12, 3.0};
    EXPECT_NO_THROW(check::solver_boundary("solver", x, true));
    // ...a genuinely negative demand does not.
    x[1] = -1e-3;
    EXPECT_THROW(check::solver_boundary("solver", x, true),
                 check::ContractViolation);
}

TEST(Validators, SolverEntryBoundaryChecksShapeAndData) {
    linalg::Matrix gram(3, 3, 1.0);
    linalg::Vector atb{1.0, 2.0, 3.0};
    EXPECT_NO_THROW(check::solver_boundary("nnls", gram, atb));

    linalg::Vector short_rhs{1.0, 2.0};
    EXPECT_THROW(check::solver_boundary("nnls", gram, short_rhs),
                 check::ContractViolation);

    gram(2, 2) = kNaN;
    EXPECT_THROW(check::solver_boundary("nnls", gram, atb),
                 check::ContractViolation);
}

TEST(Wiring, InjectedNaNAtNnlsBoundaryThrows) {
    if (!check::contracts_dbg_compiled()) {
        GTEST_SKIP() << "DBG contracts compiled out";
    }
    linalg::Matrix gram(2, 2, 0.0);
    gram(0, 0) = 2.0;
    gram(1, 1) = 2.0;
    linalg::Vector atb{1.0, kNaN};
    EXPECT_THROW(linalg::nnls_gram(gram, atb),
                 check::ContractViolation);
}

TEST(Wiring, NaNCholeskyInputIsAContractNotAMisleadingPDError) {
    if (!check::contracts_dbg_compiled()) {
        GTEST_SKIP() << "DBG contracts compiled out";
    }
    // Rank-deficient-with-NaN input: without the contract this
    // surfaces as "matrix not positive definite", pointing the
    // investigation at conditioning instead of the corrupted input.
    linalg::Matrix a(2, 2, 0.0);
    a(0, 0) = 1.0;
    a(0, 1) = kNaN;
    a(1, 0) = kNaN;
    a(1, 1) = 1.0;
    EXPECT_THROW(linalg::Cholesky{a}, check::ContractViolation);
}

TEST(Wiring, EstimatorEntryBoundaryCatchesCorruptLoads) {
    if (!check::contracts_dbg_compiled()) {
        GTEST_SKIP() << "DBG contracts compiled out";
    }
    const core::testing::SmallNetwork net = core::testing::tiny_network();
    core::SnapshotProblem p = net.snapshot();
    p.loads[1] = kNaN;
    // Every estimator funnels through validate(); gravity stands in
    // for the suite.
    EXPECT_THROW(core::gravity_estimate(p), check::ContractViolation);

    // Suspended, the same call must not trip the contract (the NaN
    // then propagates into the estimate, which is exactly the
    // pre-contract behaviour the suspension exists to reproduce).
    check::ScopedContractSuspend off;
    EXPECT_NO_THROW(core::gravity_estimate(p));
}

}  // namespace

#include "linalg/entropy_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/contract.hpp"
#include "check/validators.hpp"

namespace tme::linalg {

namespace {

/// One term of D(s||p), given lg = log(s/p).  generalized_kl and the
/// solver's probe objective both sum this expression, so a build that
/// fuses multiply-adds rounds the two the same way.
inline double kl_term(double s, double p, double lg) {
    return s > 0.0 ? s * lg - s + p : p;
}

}  // namespace

double generalized_kl(const Vector& s, const Vector& p) {
    if (s.size() != p.size()) {
        throw std::invalid_argument("generalized_kl: size mismatch");
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (p[i] <= 0.0) {
            throw std::invalid_argument("generalized_kl: prior must be > 0");
        }
        acc += kl_term(s[i], p[i], std::log(s[i] / p[i]));
    }
    return acc;
}

namespace {

/// Prior entries are clamped below at kPriorFloor * mean(prior) to keep
/// log(s/p) finite for structurally-zero priors.
constexpr double kPriorFloor = 1e-12;
/// Step size the backtracking starts from (re-used across iterations).
constexpr double kInitialStep = 1.0;

/// ||A s - b||^2 + w D(s||p) evaluated from a precomputed product
/// as = A s.  The residual squares accumulate in row order, exactly as
/// the historical sub-then-dot evaluation did, and the KL terms in
/// index order, as generalized_kl sums them, so objective values (and
/// therefore every Armijo accept/reject decision) are bit-for-bit the
/// pre-rewrite solver's.  When w > 0 the KL pass leaves log(s_i/p_i) in
/// `log_ratio`: the gradient at s needs exactly those values.
double objective_at(const Vector& as, const Vector& b, const Vector& p,
                    double w, const Vector& s, Vector& log_ratio) {
    double quad = 0.0;
    for (std::size_t i = 0; i < as.size(); ++i) {
        const double ri = as[i] - b[i];
        quad += ri * ri;
    }
    double kl = 0.0;
    if (w > 0.0) {
        for (std::size_t i = 0; i < s.size(); ++i) {
            log_ratio[i] = std::log(s[i] / p[i]);
            kl += kl_term(s[i], p[i], log_ratio[i]);
        }
    }
    return quad + (w > 0.0 ? w * kl : 0.0);
}

}  // namespace

EntropySolverResult kl_regularized_ls(const SparseMatrix& a, const Vector& b,
                                      const Vector& prior, double w,
                                      const EntropySolverOptions& options) {
    const std::size_t n = a.cols();
    if (b.size() != a.rows() || prior.size() != n) {
        throw std::invalid_argument("kl_regularized_ls: dimension mismatch");
    }
    if (w < 0.0) {
        throw std::invalid_argument("kl_regularized_ls: w must be >= 0");
    }
    TME_CONTRACT_DBG_CHECK(
        check::solver_boundary("kl_regularized_ls", a.view(), b));
    TME_CONTRACT_DBG_CHECK(
        check::finite(prior, "kl_regularized_ls prior"));

    // Clamp the prior away from zero so log(s/p) stays finite.
    Vector p = prior;
    double pmean = 0.0;
    for (double v : p) pmean += std::max(v, 0.0);
    pmean = (pmean > 0.0 ? pmean / static_cast<double>(n) : 1.0);
    const double floor = kPriorFloor * pmean;
    for (double& v : p) v = std::max(v, floor);

    EntropySolverResult result;
    if (options.initial != nullptr) {
        if (options.initial->size() != n) {
            throw std::invalid_argument("kl_regularized_ls: initial size");
        }
        result.s = *options.initial;
        for (double& v : result.s) {
            v = (std::isfinite(v) && v > floor) ? v : floor;
        }
    } else {
        result.s = p;  // start at the prior (strictly positive)
    }

    // Scale for the stationarity test.
    double bscale = nrm_inf(b);
    if (bscale == 0.0) bscale = 1.0;
    const double grad_scale = std::max(1.0, bscale * bscale);

    // Operator-form data term: the only contact with A is A x and A' x
    // over its nonzeros — A'A is never formed and nothing quadratic in
    // the variable count is ever allocated.  All work vectors live
    // outside the loop, and the product A s is carried across accepted
    // steps (the accepted trial's A*trial IS the next iteration's A s,
    // bit-for-bit), so a full iteration costs one transpose product for
    // the gradient plus one forward product per backtracking probe —
    // the forward re-multiply per iteration the historical loop paid is
    // gone.  Likewise log(s/p): the objective evaluation that accepted
    // s already computed it, so the gradient reads it from `log_s`
    // instead of paying a second divide+log pass per iteration.
    Vector as;  // A * result.s, maintained across iterations
    a.multiply_into(result.s, as);
    Vector log_s(n, 0.0);  // log(result.s / p) when w > 0
    Vector resid(a.rows(), 0.0);
    Vector grad(n, 0.0);
    Vector trial(n, 0.0);
    Vector atrial;  // A * trial
    Vector log_trial(n, 0.0);  // log(trial / p) when w > 0

    double f = objective_at(as, b, p, w, result.s, log_s);
    double eta = kInitialStep;
    std::size_t armijo_probes = 0;

    bool budget_tripped = false;
    for (result.iterations = 0; result.iterations < options.max_iterations;
         ++result.iterations) {
        if (options.budget != nullptr && options.budget->exhausted()) {
            // Deadline cut: result.s is the best point visited (every
            // accepted Armijo step lowered the objective).
            budget_tripped = true;
            break;
        }
        // grad F = 2 A'(A s - b) + w log(s ./ p).
        for (std::size_t i = 0; i < resid.size(); ++i) {
            resid[i] = as[i] - b[i];
        }
        a.multiply_transpose_into(resid, grad);
        scale(2.0, grad);
        if (w > 0.0) {
            for (std::size_t i = 0; i < n; ++i) {
                grad[i] += w * log_s[i];
            }
        }

        // First-order stationarity for the positive-orthant problem with
        // multiplicative iterates: |s_i * grad_i| must vanish.
        double stat = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            stat = std::max(stat, std::abs(result.s[i] * grad[i]));
        }
        if (stat <= options.tolerance * grad_scale) {
            result.converged = true;
            break;
        }

        // Exponentiated-gradient step with Armijo backtracking.  The step
        // is normalized by the largest |s grad| so exp() stays tame.
        const double norm = std::max(stat, 1e-300);
        bool accepted = false;
        for (int bt = 0; bt < 60; ++bt) {
            const double step = eta / norm;
            for (std::size_t i = 0; i < n; ++i) {
                // Clip the exponent to avoid overflow; +-40 changes s by
                // a factor e^40, far beyond any useful single step.
                double ex = -step * result.s[i] * grad[i];
                ex = std::clamp(ex, -40.0, 40.0);
                trial[i] = result.s[i] * std::exp(ex);
            }
            a.multiply_into(trial, atrial);
            const double ft =
                objective_at(atrial, b, p, w, trial, log_trial);
            ++armijo_probes;
            if (ft < f - 1e-12 * std::abs(f)) {
                result.s.swap(trial);
                as.swap(atrial);
                log_s.swap(log_trial);
                f = ft;
                accepted = true;
                // Allow the step to grow again after a success.
                eta = std::min(eta * 2.0, 1e6);
                break;
            }
            eta *= 0.5;
            if (eta < 1e-18) break;
        }
        if (!accepted) {
            // No descent direction at machine precision: stationary.
            result.converged = true;
            break;
        }
    }
    result.objective = f;
    result.outcome = result.converged  ? SolveOutcome::converged
                     : budget_tripped ? SolveOutcome::budget_exhausted
                                      : SolveOutcome::iteration_capped;
    if (options.counters != nullptr) {
        options.counters->entropy_iterations += result.iterations;
        options.counters->entropy_armijo_probes += armijo_probes;
        if (result.outcome == SolveOutcome::iteration_capped) {
            ++options.counters->capped_solves;
        }
    }
    TME_CONTRACT_DBG_CHECK(check::solver_boundary(
        "kl_regularized_ls", result.s, /*require_nonnegative=*/true));
    return result;
}

}  // namespace tme::linalg

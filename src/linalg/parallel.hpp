// Caller-participating block parallelism for the operator kernels.
//
// A BlockRunner executes body(begin, end) over a partition of the
// block range [0, blocks) — every block exactly once, consecutive
// blocks of one call in ascending order — and returns when all of them
// have finished.  The caller always takes part: it claims blocks
// itself, and whatever helpers the runner has free at that moment claim
// the rest one block at a time.  A runner with nobody free makes one
// call body(0, blocks) on the caller, so a busy runner costs no more
// than the plain loop over the whole range.
//
// The kernel layer only sees this interface (the engine's ThreadPool
// implements it), which keeps linalg embeddable without the engine.
// Solver options carry a runner as a non-owning pointer; nullptr runs
// body(0, blocks) inline.
//
// Solve scopes: a solver that will open regions back to back for its
// whole run (the CG-regime operator QP) brackets the run with
// begin_solve() / end_solve(), through a SolveScope.  That tells the
// runner to keep helpers ready between regions, including across the
// solver's serial stretches, until the scope closes; outside any scope
// a runner keeps no helper ready.  Scopes nest and may be open from
// several threads at once.  They only decide who is free to claim
// blocks, never the partition, so results stay bitwise the same.
//
// Determinism contract for block bodies: each output element is
// written by exactly one block, in the order the serial loop would
// write it, so the result cannot depend on how many threads ran, on
// which thread ran which block, or on how blocks were grouped into
// calls.  Bodies must not allocate, throw, poll a SolveBudget, or open
// a nested region.
#pragma once

#include <cstddef>
#include <type_traits>

namespace tme::linalg {

/// Non-owning reference to a callable `void(std::size_t begin,
/// std::size_t end)` that processes blocks [begin, end) in order.  The
/// callable must outlive every use of the reference (passing a lambda
/// straight into run_blocks / BlockRunner::run is always safe).
class BlockBody {
  public:
    template <class F, class = std::enable_if_t<
                           !std::is_same_v<std::decay_t<F>, BlockBody>>>
    BlockBody(const F& f) noexcept
        : ctx_(static_cast<const void*>(&f)),
          call_([](const void* ctx, std::size_t begin, std::size_t end) {
              (*static_cast<const F*>(ctx))(begin, end);
          }) {}

    void operator()(std::size_t begin, std::size_t end) const {
        call_(ctx_, begin, end);
    }

  private:
    const void* ctx_;
    void (*call_)(const void*, std::size_t, std::size_t);
};

class BlockRunner {
  public:
    /// Runs body over a partition of [0, blocks); returns once every
    /// block has finished.  The caller participates.
    virtual void run(std::size_t blocks, BlockBody body) = 0;

    /// Opens / closes a solve scope (see above).  Every begin_solve()
    /// must be matched by one end_solve() on the same runner; use
    /// SolveScope.  The defaults do nothing.
    virtual void begin_solve() {}
    virtual void end_solve() {}

  protected:
    ~BlockRunner() = default;
};

/// RAII solve scope on `runner`; a null runner makes it a no-op.
class SolveScope {
  public:
    explicit SolveScope(BlockRunner* runner) : runner_(runner) {
        if (runner_ != nullptr) runner_->begin_solve();
    }
    ~SolveScope() {
        if (runner_ != nullptr) runner_->end_solve();
    }
    SolveScope(const SolveScope&) = delete;
    SolveScope& operator=(const SolveScope&) = delete;

  private:
    BlockRunner* runner_;
};

/// run() on `runner`, or body(0, blocks) inline when it is null.
inline void run_blocks(BlockRunner* runner, std::size_t blocks,
                       BlockBody body) {
    if (runner == nullptr) {
        if (blocks > 0) body(0, blocks);
        return;
    }
    runner->run(blocks, body);
}

}  // namespace tme::linalg

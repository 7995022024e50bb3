#include "serve/store.hpp"

#include <chrono>
#include <stdexcept>

#include "check/contract.hpp"
#include "check/validators.hpp"
#include "obs/report.hpp"

namespace tme::serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
    return std::chrono::duration<double>(SteadyClock::now() - start)
        .count();
}

// Read only by the publish contract check, which contracts-off builds
// compile out.
[[maybe_unused]] std::vector<std::size_t> estimate_lengths(
    const EstimateSnapshot& snap) {
    std::vector<std::size_t> lengths;
    lengths.reserve(snap.methods().size());
    for (const MethodEstimate& me : snap.methods()) {
        lengths.push_back(me.estimate.size());
    }
    return lengths;
}

}  // namespace

EstimateStore::EstimateStore(StoreOptions options)
    : retention_(options.retention < 2 ? 2 : options.retention),
      slots_(retention_),
      handles_(options.max_readers < 1 ? 1 : options.max_readers) {}

EstimateStore::~EstimateStore() = default;

std::uint64_t EstimateStore::publish(EstimateSnapshot snap) {
    const SteadyClock::time_point start = SteadyClock::now();
    std::lock_guard<std::mutex> lock(writer_mutex_);
    const std::uint64_t v = head_.load(std::memory_order_relaxed) + 1;
    snap.freeze(v);
    TME_CONTRACT_CHECK(check::snapshot_structure(
        snap.version(), snap.window_start_sample(),
        snap.window_end_sample(), estimate_lengths(snap),
        "EstimateStore::publish"));
    auto owned = std::make_shared<const EstimateSnapshot>(std::move(snap));

    // Seqlock swap: invalidate the slot, install the pointer, stamp the
    // new version — all release, so a reader whose acquire load sees
    // version v also sees the matching pointer (and a reader that
    // catches the swap mid-flight sees version 0 and rejects).
    Slot& slot = slots_[static_cast<std::size_t>(v % retention_)];
    slot.version.store(0, std::memory_order_release);
    slot.ptr.store(owned.get(), std::memory_order_release);
    slot.version.store(v, std::memory_order_release);
    retained_.push_back(std::move(owned));
    // The release store orders the whole snapshot payload (frozen
    // before this line) before the head a reader acquires.
    head_.store(v, std::memory_order_release);

    // Retirement: advance the reclaim floor, then free retained
    // snapshots below both the floor and every reader pin.  The
    // seq_cst fence pairs with the readers' pin-then-check fence
    // (Dekker): either we see their pin here, or they see our new
    // floor and abort — never neither.  We never wait on a reader; a
    // pinned snapshot just stays retained until a later publish.
    const std::uint64_t floor_target =
        v >= retention_ ? v - retention_ + 1 : 1;
    floor_.store(floor_target, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::uint64_t limit = floor_target;
    for (const Handle& handle : handles_) {
        if (!handle.claimed.load(std::memory_order_acquire)) continue;
        // Acquire pairs with the reader's releasing pin-clear: once we
        // see the pin dropped, the reader's shared_ptr copy is visible,
        // so dropping our reference can never free under it.
        const std::uint64_t pinned =
            handle.active.load(std::memory_order_acquire);
        if (pinned != 0 && pinned < limit) limit = pinned;
    }
    while (!retained_.empty() && retained_.front()->version() < limit) {
        retained_.pop_front();
    }
    if (!retained_.empty() &&
        retained_.front()->version() < floor_target) {
        reclaim_deferred_.fetch_add(1, std::memory_order_relaxed);
    }
    publish_latency_.record(seconds_since(start));
    return v;
}

std::size_t EstimateStore::retained_count() const {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    return retained_.size();
}

obs::Json EstimateStore::to_json() const {
    obs::Json doc = obs::Json::object();
    doc.set("head_version", head_version());
    doc.set("floor_version", floor_version());
    doc.set("retention", retention_);
    doc.set("max_readers", handles_.size());
    doc.set("retained", retained_count());
    doc.set("reclaim_deferred", reclaim_deferred());
    doc.set("writer_waits", writer_waits());
    doc.set("publish_latency", obs::histogram_to_json(publish_latency()));
    return doc;
}

Reader::Reader(EstimateStore& store) : store_(&store), handle_(nullptr) {
    for (EstimateStore::Handle& handle : store.handles_) {
        bool expected = false;
        if (handle.claimed.compare_exchange_strong(
                expected, true, std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
            handle_ = &handle;
            return;
        }
    }
    throw std::runtime_error(
        "serve::Reader: all reader handles claimed (raise "
        "StoreOptions::max_readers)");
}

Reader::~Reader() {
    handle_->active.store(0, std::memory_order_relaxed);
    handle_->claimed.store(false, std::memory_order_release);
}

QueryResult<SnapshotRef> Reader::acquire(std::uint64_t version) {
    const std::uint64_t head =
        store_->head_.load(std::memory_order_acquire);
    if (head == 0) return {QueryStatus::empty_store, {}};
    if (version == 0 || version > head) {
        return {QueryStatus::version_unknown, {}};
    }
    if (version + store_->retention_ <= head) {
        return {QueryStatus::version_retired, {}};
    }

    // Hazard pin: announce the version, then (after the fence) confirm
    // the reclaim floor has not passed it.  Pairs with the writer's
    // floor-store / fence / pin-scan — see publish().
    handle_->active.store(version, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (store_->floor_.load(std::memory_order_relaxed) > version) {
        handle_->active.store(0, std::memory_order_release);
        return {QueryStatus::version_retired, {}};
    }

    // Seqlock read of the slot: version / pointer / version.  Both
    // version loads must equal the pinned version; slot versions are
    // strictly monotone (v, v + retention, ...), so validation is
    // ABA-proof.  The acquire fence keeps the second version load
    // ordered after the pointer load.
    EstimateStore::Slot& slot =
        store_->slots_[static_cast<std::size_t>(version %
                                                store_->retention_)];
    const std::uint64_t v1 = slot.version.load(std::memory_order_acquire);
    const EstimateSnapshot* ptr = slot.ptr.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t v2 = slot.version.load(std::memory_order_relaxed);
    if (v1 != version || v2 != version || ptr == nullptr) {
        handle_->active.store(0, std::memory_order_release);
        return {QueryStatus::version_retired, {}};
    }

    // The pin guarantees the writer has not freed this snapshot, so
    // minting shared ownership from the raw pointer is safe; once the
    // shared_ptr exists the pin can drop — ordinary refcounting takes
    // over.  The release pairs with the writer's acquire pin-scan.
    SnapshotRef ref{version, ptr->shared_from_this()};
    handle_->active.store(0, std::memory_order_release);
    return {QueryStatus::ok, std::move(ref)};
}

QueryResult<SnapshotRef> Reader::latest() {
    for (;;) {
        const std::uint64_t head =
            store_->head_.load(std::memory_order_acquire);
        if (head == 0) return {QueryStatus::empty_store, {}};
        QueryResult<SnapshotRef> ref = acquire(head);
        if (ref.ok()) return ref;
        // The head we read retired mid-validation, so at least
        // `retention` newer versions exist — reload and retry.
    }
}

QueryResult<SnapshotRef> Reader::at(std::uint64_t version) {
    return acquire(version);
}

QueryResult<std::vector<SnapshotRef>> Reader::window_range(
    std::size_t sample_lo, std::size_t sample_hi) {
    if (sample_lo > sample_hi) return {QueryStatus::invalid_range, {}};
    const std::uint64_t head =
        store_->head_.load(std::memory_order_acquire);
    if (head == 0) return {QueryStatus::empty_store, {}};
    const std::uint64_t lo_version =
        head >= store_->retention_ ? head - store_->retention_ + 1 : 1;
    std::vector<SnapshotRef> out;
    for (std::uint64_t v = lo_version; v <= head; ++v) {
        QueryResult<SnapshotRef> ref = acquire(v);
        // A version that retires mid-scan was outside the retention
        // guarantee when we return — skipping it is correct.
        if (!ref.ok()) continue;
        if (ref.value->window_start_sample() <= sample_hi &&
            ref.value->window_end_sample() >= sample_lo) {
            out.push_back(std::move(ref.value));
        }
    }
    return {QueryStatus::ok, std::move(out)};
}

QueryResult<std::vector<Reader::PointSample>> Reader::point_series(
    engine::Method m, std::size_t pair, std::size_t sample_lo,
    std::size_t sample_hi) {
    QueryResult<std::vector<SnapshotRef>> range =
        window_range(sample_lo, sample_hi);
    if (!range.ok()) return {range.status, {}};
    std::vector<PointSample> out;
    out.reserve(range.value.size());
    for (const SnapshotRef& ref : range.value) {
        const QueryResult<double> value = point(*ref, m, pair);
        if (!value.ok()) return {value.status, {}};
        out.push_back({ref.version, ref->window_start_sample(),
                       ref->window_end_sample(), value.value});
    }
    return {QueryStatus::ok, std::move(out)};
}

QueryResult<linalg::Vector> Reader::version_delta(
    engine::Method m, std::uint64_t older_version,
    std::uint64_t newer_version) {
    if (older_version > newer_version) {
        return {QueryStatus::invalid_range, {}};
    }
    QueryResult<SnapshotRef> newer = acquire(newer_version);
    if (!newer.ok()) return {newer.status, {}};
    QueryResult<SnapshotRef> older = acquire(older_version);
    if (!older.ok()) return {older.status, {}};
    return delta(*newer.value, *older.value, m);
}

}  // namespace tme::serve

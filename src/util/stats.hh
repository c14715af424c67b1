/**
 * @file
 * Statistics primitives and the central StatsRegistry.
 *
 * Two layers live here:
 *  - Accumulators (Average, Histogram) and helpers (percent, ratio)
 *    that components keep as plain members, exactly as before.
 *  - A StatsRegistry that every component registers its counters with
 *    under a hierarchical dotted path ("l1d.misses",
 *    "psb.buffer3.priority_peak"). Registration stores a *reader*
 *    (callback or bound pointer), so the registry always reflects the
 *    live values — including after a warm-up resetStats(). snapshot()
 *    materialises a sorted path -> value map and toJson() renders it
 *    deterministically (sorted keys, fixed float formatting) for the
 *    golden-stats harness, psb-report and the sweep documents.
 *
 * Modelled loosely on gem5's stats package but kept deliberately
 * small.
 */

#ifndef PSB_UTIL_STATS_HH
#define PSB_UTIL_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace psb
{

/** A running mean over samples (used for e.g.\ average load latency). */
class Average
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        _sum += v;
        ++_count;
    }

    /**
     * Record @p n identical samples at once. Bulk recording keeps
     * >2^32-event streams testable without 2^32 calls.
     */
    void
    sampleN(double v, uint64_t n)
    {
        _sum += v * double(n);
        _count += n;
    }

    /** Mean of all samples, or 0 when empty. */
    double mean() const { return _count ? _sum / double(_count) : 0.0; }

    /** Number of samples recorded. */
    uint64_t count() const { return _count; }

    /** Sum of all samples. */
    double sum() const { return _sum; }

    void
    reset()
    {
        _sum = 0.0;
        _count = 0;
    }

  private:
    double _sum = 0.0;
    uint64_t _count = 0;
};

/**
 * A fixed-bucket histogram over integer samples. Samples beyond the
 * last bucket are accumulated in an overflow bucket.
 */
class Histogram
{
  public:
    /** @param buckets Number of in-range buckets ([0, buckets)). */
    explicit Histogram(size_t buckets) : _buckets(buckets + 1, 0) {}

    /** Record one sample. */
    void sample(uint64_t v) { sampleN(v, 1); }

    /** Record @p n samples of value @p v at once. */
    void
    sampleN(uint64_t v, uint64_t n)
    {
        size_t idx = (v < _buckets.size() - 1) ? v : _buckets.size() - 1;
        _buckets[idx] += n;
        _total += n;
    }

    /** Count in bucket @p i (the final index is the overflow bucket). */
    uint64_t bucket(size_t i) const { return _buckets.at(i); }

    /** Number of in-range buckets (excluding overflow). */
    size_t numBuckets() const { return _buckets.size() - 1; }

    /** Total number of samples recorded. */
    uint64_t total() const { return _total; }

    /** Fraction of samples with value <= @p v (inclusive CDF). */
    double cdfAt(uint64_t v) const;

    /**
     * Smallest bucket value v such that at least ceil(p * total)
     * samples are <= v. Samples that landed in the overflow bucket
     * resolve to numBuckets() (the overflow index) — the true value is
     * unknown, only that it is >= the bucket range. Returns 0 for an
     * empty histogram. @p p is clamped to [0, 1].
     */
    uint64_t percentile(double p) const;

    void reset();

  private:
    std::vector<uint64_t> _buckets;
    uint64_t _total = 0;
};

/** Percentage helper: 100 * num / denom, or 0 when denom == 0. */
inline double
percent(uint64_t num, uint64_t denom)
{
    return denom ? 100.0 * double(num) / double(denom) : 0.0;
}

/** Ratio helper: num / denom, or 0 when denom == 0. */
inline double
ratio(uint64_t num, uint64_t denom)
{
    return denom ? double(num) / double(denom) : 0.0;
}

/**
 * One exported statistic value: either an exact integer counter or a
 * derived real number (ratio, mean, utilisation).
 */
struct StatValue
{
    enum class Kind
    {
        Scalar, ///< exact 64-bit event/cycle counter
        Real,   ///< derived floating-point value
    };

    Kind kind = Kind::Scalar;
    uint64_t scalar = 0;
    double real = 0.0;

    static StatValue
    makeScalar(uint64_t v)
    {
        StatValue s;
        s.kind = Kind::Scalar;
        s.scalar = v;
        return s;
    }

    static StatValue
    makeReal(double v)
    {
        StatValue s;
        s.kind = Kind::Real;
        s.real = v;
        return s;
    }

    /** The value as a double regardless of kind. */
    double
    asReal() const
    {
        return kind == Kind::Scalar ? double(scalar) : real;
    }
};

/**
 * The central registry of every component's named statistics.
 *
 * Components register *readers* under hierarchical dotted paths at
 * construction time; the registry never copies values until
 * snapshot() is called, so warm-up resets are reflected for free.
 * Paths must be unique — a duplicate registration is a simulator bug
 * and panics.
 */
class StatsRegistry
{
  public:
    using ScalarFn = std::function<uint64_t()>;
    using RealFn = std::function<double()>;

    /** Register an integer counter read through @p fn. */
    void addScalar(const std::string &path, ScalarFn fn);

    /**
     * Register an integer counter bound to @p counter. The pointee
     * must outlive the registry (all components do: they are owned by
     * the Simulator that owns the registry).
     */
    void
    addScalar(const std::string &path, const uint64_t *counter)
    {
        addScalar(path, [counter] { return *counter; });
    }

    /** Register a derived real-valued statistic. */
    void addReal(const std::string &path, RealFn fn);

    /**
     * Register an Average as three stats: path.count, path.sum, and
     * path.mean.
     */
    void addAverage(const std::string &path, const Average *avg);

    /**
     * Register a Histogram as one stat per bucket (path.bucketNN,
     * zero-padded so lexicographic order is numeric order), plus
     * path.overflow and path.samples.
     */
    void addHistogram(const std::string &path, const Histogram *hist);

    bool has(const std::string &path) const;
    size_t size() const { return _stats.size(); }

    /** Evaluate every reader; sorted by path (std::map ordering). */
    std::map<std::string, StatValue> snapshot() const;

    /**
     * Deterministic flat-JSON dump: one "path": value member per
     * stat, keys sorted, scalars as integers, reals formatted with
     * round-trip-exact fixed formatting. Byte-identical across runs
     * with identical stats.
     */
    std::string toJson() const;

  private:
    void add(const std::string &path, std::function<StatValue()> fn);

    std::map<std::string, std::function<StatValue()>> _stats;
};

} // namespace psb

#endif // PSB_UTIL_STATS_HH

/**
 * @file
 * Shared pieces of the perfbench binary: the clock, exact
 * percentiles from raw samples, the span recorder the traced runs
 * use, and the result record every subcommand prints.
 *
 * Everything here is owned by the benchmark on purpose: no reported
 * number comes from the library's own load generator, obs histograms
 * or sweep statistics, so a change to those cannot move a baseline.
 */
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two time points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Nanoseconds since the clock's epoch. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/**
 * Exact q-quantile (0 < q <= 1) of @p samples by the nearest-rank
 * rule: the smallest sample with at least q of all samples at or
 * below it. Reorders @p samples. 0 for an empty sample.
 */
double quantile(std::vector<double> &samples, double q);

/** quantile(samples, 0.5) on a copy. */
double median(std::vector<double> samples);

/** Peak resident set of this process so far (or since reset), MB. */
double peakRssMb();

/** Restart the peak resident set from the current one (Linux). */
void resetPeakRss();

/** CPUs this process may run on (what `nproc` prints). */
unsigned usableCpus();

/**
 * Refuse to measure an unoptimised build or more threads than
 * usableCpus(): throws std::runtime_error naming the cause.
 */
void checkGuardRails(unsigned threads);

/** @p values as one space-separated string, for result notes. */
std::string joined(const std::vector<double> &values);

/** 64-bit FNV-1a digest of @p bytes. */
std::uint64_t fnv1a(const std::string &bytes);

/** "0x" + 16 hex digits. */
std::string hex64(std::uint64_t v);

/**
 * Spans the benchmark records around the public call of each layer
 * (traced runs only). Spans stay in memory; each layer metric is a
 * reduction over the spans of one name.
 */
class Spans
{
  public:
    /** Time @p fn as one span named @p name and return its result. */
    template <typename Fn>
    auto
    time(const std::string &name, Fn &&fn)
    {
        const Clock::time_point start = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            record(name, secondsBetween(start, Clock::now()));
        } else {
            auto result = fn();
            record(name, secondsBetween(start, Clock::now()));
            return result;
        }
    }

    /** Add one span of @p seconds under @p name. */
    void record(const std::string &name, double seconds);

    /** Sum of the spans named @p name (0 when none). */
    double total(const std::string &name) const;

    /** Longest span named @p name (0 when none). */
    double longest(const std::string &name) const;

    /** Number of spans named @p name. */
    std::size_t count(const std::string &name) const;

  private:
    std::map<std::string, std::vector<double>> byName_;
};

/**
 * What one subcommand measured: operations attempted and failed,
 * the metrics in insertion order, and descriptive info (toolchain,
 * seeds, sample counts). Printed as one JSON line.
 */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::vector<std::pair<std::string, std::string>> info;

    void metric(const std::string &name, double value,
                const std::string &unit);
    void note(const std::string &key, const std::string &value);
    void note(const std::string &key, double value);

    /** Count one operation; a false @p ok counts it as failed. */
    void check(bool ok, const std::string &what);

    /** The record as one line of JSON. */
    std::string json() const;
};

/** Add the toolchain and machine notes every result carries. */
void noteEnvironment(Result &r, unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP

/**
 * @file
 * The two phases a perfbench workload runs, each in its own process
 * so that its peak resident set is its own: the study phase (sweep
 * and analyse/freeze pipelines) and the serve phase (an Advisor
 * loaded from the study's .gpi snapshot answering a query stream).
 */
#ifndef PERFBENCH_PHASES_HPP
#define PERFBENCH_PHASES_HPP

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfbench {

struct StudyOptions
{
    /** Schedule space: "legacy" (96) or "extended" (576). */
    std::string space = "legacy";
    unsigned threads = 1;
    /**
     * Untraced pipeline runs. A fixed count rather than a time, so a
     * faster commit runs the same work.
     */
    unsigned reps = 3;
    bool trace = false;
    /** Where to write the final index snapshot (.gpi), if anywhere. */
    std::string gpiOut;
};

/**
 * Untraced: setup_s, sweep_s, pipeline_s and peak_rss_mb. Traced:
 * the sweep and analyse/freeze layer metrics.
 */
Result runStudy(const StudyOptions &o);

struct ServeOptions
{
    /** Index snapshot written by the study phase. */
    std::string gpi;
    /** Traffic mix: "mixed" (known and unknown chips) or "known". */
    std::string mix = "mixed";
    std::uint64_t seed = 1;
    unsigned threads = 1;
    /** Measuring time, split across the serve measurements. */
    double seconds = 1.0;
    bool trace = false;
};

/**
 * Untraced: set-up time (snapshot load + Advisor construction),
 * closed-loop QPS, open-loop latency percentiles, the highest rate
 * meeting the p99 budget, and peak_rss_mb. Traced: the serve layer
 * metrics.
 */
Result runServe(const ServeOptions &o);

} // namespace perfbench

#endif // PERFBENCH_PHASES_HPP

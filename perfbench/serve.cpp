/**
 * @file
 * The serve phase: an Advisor loaded from the study's .gpi snapshot
 * answers a query stream the benchmark generates from its seed,
 * through Advisor::adviseResilient (the call serveBatch and serve
 * workers make). Every answer is compared with Advice::sameAnswer
 * against the reference computed at set-up by
 * Advisor::adviseReference. The closed and open loops dispatch
 * from the client threads themselves, and every percentile
 * is exact, from raw samples.
 */
#include "phases.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <fstream>
#include <latch>
#include <memory>
#include <random>
#include <thread>
#include <tuple>

#include "graphport/serve/advisor.hpp"
#include "graphport/support/allochook.hpp"

namespace perfbench {

namespace {

using namespace graphport;

/** Distinct queries per stream; the loops cycle through them. */
constexpr std::size_t kStreamSize = 8192;
/** Queries per layer probe. */
constexpr std::size_t kProbeSize = 1024;
/** The repository's open-loop latency budget on p99. */
constexpr double kP99BudgetUs = 1000.0;
/** A rate is sustained when completions reach this share of it. */
constexpr double kKeptUpShare = 0.97;
/** Open-loop rates whose latency is reported, q/s. */
constexpr double kLowRate = 50e3;
constexpr double kHighRate = 200e3;
/**
 * The fixed ladder of offered rates for max_qps_p99: rung k offers
 * 100k * 1.05^k q/s, up to about 10M, so one rung is a 5% step.
 */
double
ladderRate(std::size_t k)
{
    return std::round(100e3 * std::pow(1.05, static_cast<double>(k)));
}
constexpr std::size_t kLadderRungs = 95;
/** Arrivals per ladder pass: the same sample memory at every rung. */
constexpr std::size_t kLadderArrivals = 131072;
/**
 * Interleaved measurement rounds of an untraced serve phase; one
 * more round runs first, unrecorded, to warm the client threads.
 */
constexpr int kRounds = 20;
/**
 * Serve set-ups (snapshot load + Advisor construction) timed per
 * round. Spread over the rounds rather than timed back to back,
 * because their cost follows the machine's load over seconds.
 */
constexpr int kSetupsPerRound = 2;
/** Set-ups a traced run times back to back. */
constexpr int kTracedSetups = 21;

/** Chips no study measured: queries on them take the k-NN path. */
const std::vector<std::string> kUnknownChips = {"A100", "XE2"};
/** Inputs outside the study: a less specialised tier answers. */
const std::vector<std::string> kUnseenInputs = {"intranet", "mesh"};

const serve::ServePolicy kPolicy{};

/** Shares of the three query classes of a traffic mix. */
struct Mix
{
    /** Indexed (app, input, chip); a quarter name the input's class. */
    double exact = 0.0;
    double unseen = 0.0;  ///< known chip, input outside the study
    double unknown = 0.0; ///< chip outside the study, indexed pair
};

Mix
mixByName(const std::string &name)
{
    if (name == "mixed")
        return {0.60, 0.18, 0.22};
    // "known": the mixed stream with its unknown-chip share moved
    // onto known chips in proportion.
    if (name == "known")
        return {0.77, 0.23, 0.0};
    throw std::runtime_error("unknown traffic mix '" + name +
                             "' (mixed or known)");
}

/** Queries plus how many of each class the generator emitted. */
struct Stream
{
    std::vector<serve::Query> queries;
    std::size_t exactByName = 0;
    std::size_t exactByClass = 0;
    std::size_t unseen = 0;
    std::size_t unknown = 0;
};

/**
 * A stream of @p n queries drawn from @p seed. Class counts are exact
 * (rounded shares of @p n) and only their order and the names in each
 * query vary with the seed, so seeds differ in which queries they
 * send, not in how much of each class.
 */
Stream
makeStream(const serve::StrategyIndex &index, const Mix &mix,
           std::size_t n, std::uint64_t seed)
{
    for (const std::string &c : kUnknownChips) {
        if (index.hasChip(c))
            throw std::runtime_error("chip " + c + " is in the index");
    }
    enum Class : std::uint8_t { ByName, ByClass, Unseen, Unknown };
    auto count = [n](double share) {
        return static_cast<std::size_t>(
            std::llround(share * static_cast<double>(n)));
    };
    Stream s;
    s.exactByClass = count(mix.exact / 4);
    s.unseen = count(mix.unseen);
    s.unknown = count(mix.unknown);
    s.exactByName = n - s.exactByClass - s.unseen - s.unknown;
    std::vector<Class> classes;
    classes.insert(classes.end(), s.exactByName, ByName);
    classes.insert(classes.end(), s.exactByClass, ByClass);
    classes.insert(classes.end(), s.unseen, Unseen);
    classes.insert(classes.end(), s.unknown, Unknown);

    std::mt19937_64 rng(seed);
    // Fisher-Yates with raw engine output, identical on every
    // standard library (std::shuffle's draws are not specified).
    for (std::size_t i = classes.size(); i > 1; --i)
        std::swap(classes[i - 1], classes[rng() % i]);
    auto pick = [&](const auto &v) -> const auto & {
        return v[rng() % v.size()];
    };
    s.queries.reserve(n);
    for (const Class c : classes) {
        const runner::InputSpec &in = pick(index.inputs());
        serve::Query q;
        q.app = pick(index.apps());
        q.chip = c == Unknown ? pick(kUnknownChips) : pick(index.chips());
        q.input = c == ByName || c == Unknown ? in.name
                  : c == ByClass            ? in.cls
                                            : pick(kUnseenInputs);
        s.queries.push_back(std::move(q));
    }
    return s;
}

/** The reference answer of every query, from the kept oracle. */
std::vector<serve::Advice>
referenceAnswers(const serve::Advisor &adv, const Stream &s)
{
    std::vector<serve::Advice> ref;
    ref.reserve(s.queries.size());
    for (std::size_t i = 0; i < s.queries.size(); ++i)
        ref.push_back(adv.adviseReference(s.queries[i], i, kPolicy));
    return ref;
}

/** Answer query @p i and compare it with its reference answer. */
bool
serveOne(const serve::Advisor &adv, const Stream &s,
         const std::vector<serve::Advice> &ref, std::size_t i,
         serve::Tier *tier = nullptr)
{
    try {
        const serve::Advice a =
            adv.adviseResilient(s.queries[i], i, kPolicy);
        if (tier != nullptr)
            *tier = a.tierId;
        return a.sameAnswer(ref[i]);
    } catch (const std::exception &) {
        return false;
    }
}

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Run @p client(t) on @p threads threads, the caller being thread 0.
 * jthreads join on every exit path, including a throw.
 */
template <typename Fn>
void
onThreads(unsigned threads, Fn &&client)
{
    std::vector<std::jthread> pool;
    pool.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back([&client, t] { client(t); });
    client(0);
}

/** Outcome counts of one closed- or open-loop pass. */
struct Tally
{
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
};

void
addTally(Result &r, const Tally &t)
{
    r.attempted += t.done;
    r.failed += t.failed;
}

/** One closed-loop window. */
struct ClosedLoop
{
    double qps = 0.0;
    Tally tally;
    /** Traced windows: nanoseconds spent answering, per tier. */
    std::array<double, serve::kNumTiers> nsByTier{};
};

/**
 * Closed loop: each of @p threads clients sends its next query as
 * soon as the previous answer is back, for @p seconds. A traced
 * window also times every query; it takes a single client, since
 * the per-tier sums are not shared safely.
 */
ClosedLoop
closedLoop(const serve::Advisor &adv, const Stream &s,
           const std::vector<serve::Advice> &ref, unsigned threads,
           double seconds, bool traced = false)
{
    if (traced && threads != 1)
        throw std::logic_error("a traced closed loop takes one client");
    const std::size_t n = s.queries.size();
    std::vector<Tally> tallies(threads);
    std::vector<double> elapsed(threads);
    std::latch ready(threads);
    ClosedLoop out;
    onThreads(threads, [&](unsigned t) {
        Tally tally;
        std::size_t i = t * n / threads;
        ready.arrive_and_wait();
        const Clock::time_point start = Clock::now();
        const Clock::time_point deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        do {
            for (int k = 0; k < 32; ++k, ++i) {
                bool ok = false;
                if (traced) {
                    serve::Tier tier = serve::Tier::Global;
                    const std::uint64_t t0 = nowNs();
                    ok = serveOne(adv, s, ref, i % n, &tier);
                    out.nsByTier[static_cast<std::size_t>(tier)] +=
                        static_cast<double>(nowNs() - t0);
                } else {
                    ok = serveOne(adv, s, ref, i % n);
                }
                ++tally.done;
                tally.failed += ok ? 0 : 1;
            }
        } while (Clock::now() < deadline);
        elapsed[t] = secondsBetween(start, Clock::now());
        tallies[t] = tally;
    });
    double longest = 0.0;
    for (unsigned t = 0; t < threads; ++t) {
        out.tally.done += tallies[t].done;
        out.tally.failed += tallies[t].failed;
        longest = std::max(longest, elapsed[t]);
    }
    out.qps = static_cast<double>(out.tally.done) / longest;
    return out;
}

/** One open-loop pass, with one raw sample per query. */
struct OpenLoop
{
    double offeredQps = 0.0;
    double achievedQps = 0.0;
    Tally tally;
    /** Intended send to completion, us. */
    std::vector<double> latencyUs;
    /** Intended send to dispatch, us. */
    std::vector<double> queueWaitUs;
    /** Dispatch to completion, us. */
    std::vector<double> serviceUs;
    /** Dispatch lateness of queries a client was idle for, us. */
    std::vector<double> lateUs;

    bool
    meetsBudget()
    {
        return achievedQps >= kKeptUpShare * offeredQps &&
               quantile(latencyUs, 0.99) <= kP99BudgetUs;
    }
};

/**
 * Open loop: Poisson arrivals at @p rate for @p seconds, drawn from
 * @p seed. Client threads claim arrivals in order, wait for each
 * one's intended send time, and answer it; a query that arrives
 * while every client is busy waits in the queue, and that wait is
 * part of its latency.
 */
OpenLoop
openLoop(const serve::Advisor &adv, const Stream &s,
         const std::vector<serve::Advice> &ref, unsigned threads,
         double rate, double seconds, std::uint64_t seed)
{
    const std::size_t n =
        std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
    std::vector<std::uint64_t> due(n);
    std::mt19937_64 rng(seed);
    double at = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
        at += -std::log1p(-u) / rate * 1e9;
        due[i] = static_cast<std::uint64_t>(at);
    }

    OpenLoop out;
    out.latencyUs.resize(n);
    out.queueWaitUs.resize(n);
    out.serviceUs.resize(n);
    std::vector<std::uint8_t> idle(n);
    std::vector<std::uint64_t> lastEnd(threads);
    std::vector<Tally> tallies(threads);
    std::atomic<std::size_t> next{0};
    // Far enough ahead that every client is waiting when it begins.
    const std::uint64_t base = nowNs() + 5'000'000;
    onThreads(threads, [&](unsigned t) {
        Tally tally;
        std::uint64_t end = 0;
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            const std::uint64_t intended = base + due[i];
            std::uint64_t now = nowNs();
            idle[i] = now < intended;
            while (now < intended) {
                cpuRelax();
                now = nowNs();
            }
            const bool ok = serveOne(adv, s, ref, i % s.queries.size());
            end = nowNs();
            out.latencyUs[i] = static_cast<double>(end - intended) / 1e3;
            out.queueWaitUs[i] = static_cast<double>(now - intended) / 1e3;
            out.serviceUs[i] = static_cast<double>(end - now) / 1e3;
            ++tally.done;
            tally.failed += ok ? 0 : 1;
        }
        lastEnd[t] = end;
        tallies[t] = tally;
    });
    std::uint64_t finish = base;
    for (unsigned t = 0; t < threads; ++t) {
        finish = std::max(finish, lastEnd[t]);
        out.tally.done += tallies[t].done;
        out.tally.failed += tallies[t].failed;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (idle[i])
            out.lateUs.push_back(out.queueWaitUs[i]);
    }
    const double scheduleNs =
        static_cast<double>(std::max<std::uint64_t>(due[n - 1], 1));
    out.offeredQps = static_cast<double>(n) / (scheduleNs / 1e9);
    out.achievedQps =
        static_cast<double>(n) / (static_cast<double>(finish - base) / 1e9);
    return out;
}

/** Per-call adviseResilient times of a probe stream, ns. */
std::vector<double>
probeNs(Result &r, const serve::Advisor &adv, const Stream &probe,
        const std::vector<serve::Advice> &ref, int passes)
{
    std::vector<double> ns;
    for (int pass = -1; pass < passes; ++pass) { // pass -1 warms
        for (std::size_t i = 0; i < probe.queries.size(); ++i) {
            const std::uint64_t t0 = nowNs();
            const bool ok = serveOne(adv, probe, ref, i);
            const std::uint64_t t1 = nowNs();
            if (pass >= 0) {
                ns.push_back(static_cast<double>(t1 - t0));
                r.check(ok, "probe answer matches its reference");
            }
        }
    }
    return ns;
}

/**
 * The queries of @p s the allocation-free ID path answers, interned,
 * with their positions in @p s.
 */
std::vector<std::pair<std::size_t, serve::IdQuery>>
steadyIds(const serve::Advisor &adv, const Stream &s)
{
    const serve::Advisor::Lease lease = adv.lease();
    std::vector<std::pair<std::size_t, serve::IdQuery>> ids;
    for (std::size_t i = 0; i < s.queries.size(); ++i) {
        const serve::Query &q = s.queries[i];
        const serve::IdQuery id =
            lease->frozen.internQuery(q.app, q.input, q.chip);
        if (lease->frozen.steady(id))
            ids.emplace_back(i, id);
    }
    return ids;
}

std::uint64_t
fileSize(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

void
noteStream(Result &r, const Stream &s)
{
    const double n = static_cast<double>(s.queries.size());
    r.note("stream_queries", n);
    r.note("share_exact_by_name", s.exactByName / n);
    r.note("share_exact_by_class", s.exactByClass / n);
    r.note("share_unseen_input", s.unseen / n);
    r.note("share_unknown_chip", s.unknown / n);
}

/** One serve set-up: load the snapshot, construct the Advisor. */
struct SetupTime
{
    double load = 0.0;
    double freeze = 0.0;
    double total = 0.0;
};

SetupTime
timeSetup(Result &r, const std::string &gpi)
{
    const Clock::time_point t0 = Clock::now();
    serve::StrategyIndex index = serve::StrategyIndex::loadFile(gpi);
    const Clock::time_point t1 = Clock::now();
    const serve::Advisor adv(std::move(index));
    const Clock::time_point t2 = Clock::now();
    r.check(adv.lease()->frozen.numConfigs() > 0,
            "the loaded snapshot answers with a schedule space");
    return {secondsBetween(t0, t1), secondsBetween(t1, t2),
            secondsBetween(t0, t2)};
}

} // namespace

Result
runServe(const ServeOptions &o)
{
    checkGuardRails(o.threads);
    const Mix mix = mixByName(o.mix);
    Result r;
    noteEnvironment(r, o.threads);
    r.note("mix", o.mix);
    r.note("seed", static_cast<double>(o.seed));

    const auto adv = std::make_unique<serve::Advisor>(
        serve::StrategyIndex::loadFile(o.gpi));
    // Open-loop clients leave one CPU to the OS and the rest of the
    // machine: a client spinning towards its next send time is then
    // not preempted, and the tail measures the server, not that.
    const unsigned openClients = std::max(1u, o.threads - 1);
    r.note("open_loop_clients", openClients);

    const serve::Advisor::Lease pinned = adv->lease();
    const serve::StrategyIndex &index = pinned->index;
    const Stream stream = makeStream(index, mix, kStreamSize, o.seed);
    const std::vector<serve::Advice> ref = referenceAnswers(*adv, stream);
    noteStream(r, stream);
    // Warm every query once (feature cache, per-thread buffers).
    for (std::size_t i = 0; i < stream.queries.size(); ++i)
        r.check(serveOne(*adv, stream, ref, i), "warm-up answer");

    const double S = o.seconds;
    const std::uint64_t lowSeed = o.seed ^ 0x6f70656e2d353000ull;
    const std::uint64_t highSeed = o.seed ^ 0x6f70656e2d323030ull;

    if (!o.trace) {
        // Rounds interleave the measurements, so each one's median
        // samples the whole run rather than one stretch of it.
        std::vector<double> setups, qps1, qpsN, p50Low, p90Low, p99Low,
            p50High, p90High, p99High;
        const double round = 0.7 * S / kRounds;
        for (int k = -1; k < kRounds; ++k) {
            for (int i = 0; i < kSetupsPerRound; ++i) {
                const double t = timeSetup(r, o.gpi).total;
                if (k >= 0)
                    setups.push_back(t);
            }
            const ClosedLoop one =
                closedLoop(*adv, stream, ref, 1, 0.2 * round);
            const ClosedLoop all =
                closedLoop(*adv, stream, ref, o.threads, 0.2 * round);
            const std::uint64_t pass = static_cast<std::uint64_t>(k + 1);
            OpenLoop low = openLoop(*adv, stream, ref, openClients,
                                    kLowRate, 0.3 * round, lowSeed + pass);
            OpenLoop high = openLoop(*adv, stream, ref, openClients,
                                     kHighRate, 0.3 * round, highSeed + pass);
            for (const Tally &t : {one.tally, all.tally, low.tally, high.tally})
                addTally(r, t);
            if (k < 0)
                continue;
            qps1.push_back(one.qps);
            qpsN.push_back(all.qps);
            p50Low.push_back(quantile(low.latencyUs, 0.5));
            p90Low.push_back(quantile(low.latencyUs, 0.9));
            p99Low.push_back(quantile(low.latencyUs, 0.99));
            p50High.push_back(quantile(high.latencyUs, 0.5));
            p90High.push_back(quantile(high.latencyUs, 0.9));
            p99High.push_back(quantile(high.latencyUs, 0.99));
            if (k == 0) {
                r.note("open_loop_samples_50k",
                       static_cast<double>(low.latencyUs.size()));
                r.note("open_loop_samples_200k",
                       static_cast<double>(high.latencyUs.size()));
            }
        }
        const std::tuple<const char *, const std::vector<double> *,
                         const char *>
            perRound[] = {{"setup_s", &setups, "s"},
                          {"qps_1t", &qps1, "q/s"},
                          {"qps_nproc", &qpsN, "q/s"},
                          {"p50_us_50k", &p50Low, "us"},
                          {"p90_us_50k", &p90Low, "us"},
                          {"p50_us_200k", &p50High, "us"},
                          {"p90_us_200k", &p90High, "us"}};
        for (const auto &[name, values, unit] : perRound) {
            r.metric(name, median(*values), unit);
            r.note(std::string(name) + "_rounds", joined(*values));
        }
        // p99 of microsecond answers is kept in the record only: on a
        // shared VM it swings several-fold between runs.
        r.note("p99_us_50k", median(p99Low));
        r.note("p99_us_200k", median(p99High));

        // Highest ladder rung that meets the budget, by bisection
        // (rungs below it are assumed to meet it too); a rung gets a
        // second pass before it counts as missed.
        std::ptrdiff_t met = -1;
        std::ptrdiff_t missed = static_cast<std::ptrdiff_t>(kLadderRungs);
        int ladderPasses = 0;
        while (missed - met > 1) {
            const std::ptrdiff_t mid = (met + missed) / 2;
            const double rate = ladderRate(static_cast<std::size_t>(mid));
            bool ok = false;
            for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
                OpenLoop pass = openLoop(
                    *adv, stream, ref, openClients, rate,
                    static_cast<double>(kLadderArrivals) / rate,
                    o.seed + 1000 * static_cast<std::uint64_t>(mid) + attempt);
                addTally(r, pass.tally);
                ok = pass.meetsBudget();
                ++ladderPasses;
            }
            (ok ? met : missed) = mid;
        }
        if (met < 0)
            throw std::runtime_error(
                "the lowest ladder rung (" +
                std::to_string(static_cast<long>(ladderRate(0))) +
                " q/s) misses the p99 budget");
        const double best = ladderRate(static_cast<std::size_t>(met));
        r.metric("max_qps_p99", best, "q/s");
        r.metric("peak_rss_mb", peakRssMb(), "MB");
        r.note("rounds", kRounds);
        r.note("ladder_passes", ladderPasses);
        return r;
    }

    std::vector<double> loads;
    std::vector<double> freezes;
    for (int i = 0; i < kTracedSetups; ++i) {
        const SetupTime t = timeSetup(r, o.gpi);
        loads.push_back(t.load);
        freezes.push_back(t.freeze);
    }
    r.metric("serve.snapshot_load_s", median(loads), "s");
    r.metric("serve.freeze_s", median(freezes), "s");
    r.metric("serve.snapshot_bytes", static_cast<double>(fileSize(o.gpi)),
             "bytes");

    // Layer probes: the k-NN path alone and the lattice descent alone.
    const Stream knn = makeStream(index, {0.0, 0.0, 1.0}, kProbeSize,
                                  o.seed ^ 0x6b6e6eull);
    const Stream lattice = makeStream(index, mixByName("known"), kProbeSize,
                                      o.seed ^ 0x6c6174ull);
    std::vector<double> knnNs =
        probeNs(r, *adv, knn, referenceAnswers(*adv, knn), 3);
    const std::vector<serve::Advice> latticeRef =
        referenceAnswers(*adv, lattice);
    std::vector<double> latNs = probeNs(r, *adv, lattice, latticeRef, 3);
    r.metric("serve.predict_ns_p50", quantile(knnNs, 0.5), "ns");
    r.metric("serve.predict_ns_p99", quantile(knnNs, 0.99), "ns");
    r.metric("serve.lattice_ns_p50", quantile(latNs, 0.5), "ns");
    r.metric("serve.lattice_ns_p99", quantile(latNs, 0.99), "ns");

    // The ID path on pre-interned queries.
    const auto ids = steadyIds(*adv, lattice);
    std::vector<double> idNs;
    for (int pass = -1; pass < 3; ++pass) { // pass -1 warms
        for (const auto &[i, id] : ids) {
            const std::uint64_t t0 = nowNs();
            const serve::AdviceView v = adv->advise(id, i, kPolicy);
            const std::uint64_t t1 = nowNs();
            if (pass >= 0)
                idNs.push_back(static_cast<double>(t1 - t0));
            r.check(v.config == latticeRef[i].config &&
                        v.tier == latticeRef[i].tierId,
                    "ID-path answer matches its reference");
        }
    }
    r.metric("serve.idpath_ns_p50", quantile(idNs, 0.5), "ns");

    // Allocations of the steady path, intern included, on a warm pass.
    const auto steady = steadyIds(*adv, stream);
    r.check(!steady.empty(), "the stream has steady-path queries");
    std::uint64_t allocs = 0;
    for (int pass = 0; pass < 2; ++pass) { // pass 0 warms
        support::resetThreadAllocCounts();
        for (const auto &entry : steady) {
            const serve::Query &q = stream.queries[entry.first];
            adv->advise(pinned->frozen.internQuery(q.app, q.input, q.chip),
                        entry.first, kPolicy);
        }
        allocs = support::threadAllocCounts().allocs;
    }
    r.metric("serve.allocs_per_query",
             static_cast<double>(allocs) /
                 static_cast<double>(std::max<std::size_t>(steady.size(), 1)),
             "count");

    // Traffic-mix accounting: answering tier of every stream query.
    std::array<std::size_t, serve::kNumTiers> tiers{};
    for (const serve::Advice &a : ref)
        ++tiers[static_cast<std::size_t>(a.tierId)];
    for (std::size_t t = 0; t < serve::kNumLatticeTiers + 1; ++t) {
        r.metric("serve.tier." + serve::tierName(static_cast<serve::Tier>(t)),
                 static_cast<double>(tiers[t]), "count");
    }
    const double hits = static_cast<double>(adv->featureCacheHits());
    const double lookups =
        hits + static_cast<double>(adv->featureCacheMisses());
    r.metric("serve.feature_cache_hit_ratio",
             lookups > 0.0 ? hits / lookups : 0.0, "ratio");

    // Untraced against traced single-client windows, alternating:
    // the traced ones time every query and split the time by tier.
    std::vector<double> plainNs;
    std::vector<double> tracedNs;
    std::array<double, serve::kNumTiers> nsByTier{};
    for (int w = 0; w < 3; ++w) {
        const ClosedLoop plain =
            closedLoop(*adv, stream, ref, 1, 0.05 * S);
        const ClosedLoop traced =
            closedLoop(*adv, stream, ref, 1, 0.05 * S, true);
        addTally(r, plain.tally);
        addTally(r, traced.tally);
        plainNs.push_back(1e9 / plain.qps);
        tracedNs.push_back(1e9 / traced.qps);
        for (std::size_t t = 0; t < serve::kNumTiers; ++t)
            nsByTier[t] += traced.nsByTier[t];
    }
    double allNs = 0.0;
    for (const double ns : nsByTier)
        allNs += ns;
    r.metric("serve.predict_time_share",
             nsByTier[static_cast<std::size_t>(serve::Tier::Predictive)] /
                 allNs,
             "ratio");

    // The open loop's own view: queueing, service, lateness.
    OpenLoop low = openLoop(*adv, stream, ref, openClients, kLowRate,
                            0.2 * S, lowSeed);
    OpenLoop high = openLoop(*adv, stream, ref, openClients, kHighRate,
                             0.2 * S, highSeed);
    addTally(r, low.tally);
    addTally(r, high.tally);
    r.metric("serve.queue_wait_us_p99_50k", quantile(low.queueWaitUs, 0.99),
             "us");
    r.metric("serve.queue_wait_us_p99_200k",
             quantile(high.queueWaitUs, 0.99), "us");
    r.metric("serve.service_us_p99_200k", quantile(high.serviceUs, 0.99),
             "us");
    r.metric("loadgen.late_us_p99_50k", quantile(low.lateUs, 0.99), "us");
    r.metric("loadgen.late_us_p99_200k", quantile(high.lateUs, 0.99), "us");
    r.metric("bench.trace_overhead_pct",
             100.0 * (median(tracedNs) - median(plainNs)) / median(plainNs),
             "%");
    return r;
}

} // namespace perfbench

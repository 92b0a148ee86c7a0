/**
 * @file
 * The study phase: the paper's universe (17 apps x 3 inputs x 6
 * chips) driven from the universe to a published Advisor plus a
 * solved portfolio, through the public calls of the sweep
 * (runner::Dataset::build) and analyse/freeze
 * (serve::StrategyIndex::build, portfolio::solveCover, Advisor)
 * pipelines. Every pipeline run is checked against pinned golden
 * digests. The traced form also calls each layer's public entry
 * point on its own, so the per-layer numbers are measured around
 * exactly one layer.
 */
#include "phases.hpp"

#include <fstream>
#include <memory>
#include <sstream>

#include "graphport/apps/app.hpp"
#include "graphport/dsl/compact.hpp"
#include "graphport/port/predict.hpp"
#include "graphport/port/strategy.hpp"
#include "graphport/portfolio/cover.hpp"
#include "graphport/runner/dataset.hpp"
#include "graphport/serve/advisor.hpp"
#include "graphport/sim/costengine.hpp"

namespace perfbench {

namespace {

using namespace graphport;

/**
 * Golden outputs of the full study, identical at every thread count
 * (checked at 1 and 4 threads): the dataset's contentHash, the
 * FNV-1a digest of the saved .gpi bytes, and the members of the
 * epsilon = 0.10 portfolio cover.
 */
struct Golden
{
    const char *space;
    std::uint64_t datasetHash;
    std::uint64_t gpiDigest;
    std::vector<unsigned> members;
};

const Golden &
goldenFor(const std::string &space)
{
    static const std::vector<Golden> pins = {
        {"legacy", 0x94fdddacb19b9b75ull, 0x8a4df3877f0635c0ull,
         {41, 17, 77, 24, 26, 87, 0}},
        {"extended", 0xc7b627b062facdadull, 0xdc4274d6c04257cdull,
         {41, 17, 269, 24, 26, 206, 279, 72, 0}},
    };
    for (const Golden &g : pins) {
        if (space == g.space)
            return g;
    }
    throw std::runtime_error("unknown schedule space '" + space +
                             "' (legacy or extended)");
}

constexpr double kAlpha = 0.05;
constexpr unsigned kKnnK = 3;
constexpr double kCoverEpsilon = 0.10;

/** One pipeline run: universe to published Advisor + portfolio. */
struct PipelineRun
{
    double sweepS = 0.0;
    double pipelineS = 0.0;
    std::unique_ptr<runner::Dataset> dataset;
    std::unique_ptr<serve::Advisor> advisor;
    std::vector<unsigned> members;
    std::string gpiBytes;
};

/**
 * Run the pipeline once. With @p spans, each public call is one span
 * (runner.build, serve.index_build, portfolio.matrix,
 * portfolio.solve, serve.freeze).
 */
PipelineRun
runPipeline(const runner::Universe &u, unsigned threads, Spans *spans)
{
    auto span = [&](const char *name, auto &&fn) {
        if (spans != nullptr)
            return spans->time(name, fn);
        return fn();
    };
    PipelineRun run;
    const Clock::time_point start = Clock::now();
    runner::BuildOptions build;
    build.threads = threads;
    runner::Dataset ds = span("runner.build", [&] {
        return runner::Dataset::build(u, build);
    });
    run.sweepS = secondsBetween(start, Clock::now());
    serve::StrategyIndex index = span("serve.index_build", [&] {
        return serve::StrategyIndex::build(ds, kAlpha, kKnnK);
    });
    const portfolio::SlowdownMatrix matrix =
        span("portfolio.matrix", [&] {
            return portfolio::SlowdownMatrix::build(ds, threads);
        });
    portfolio::CoverOptions cover;
    cover.epsilon = kCoverEpsilon;
    cover.threads = threads;
    const portfolio::CoverSolution solution =
        span("portfolio.solve",
             [&] { return portfolio::solveCover(matrix, cover); });
    run.advisor = span("serve.freeze", [&] {
        return std::make_unique<serve::Advisor>(std::move(index));
    });
    run.pipelineS = secondsBetween(start, Clock::now());

    run.members = solution.members;
    std::ostringstream gpi;
    run.advisor->lease()->index.save(gpi);
    run.gpiBytes = gpi.str();
    run.dataset = std::make_unique<runner::Dataset>(std::move(ds));
    return run;
}

void
checkGolden(Result &r, const Golden &g, const PipelineRun &run)
{
    const std::uint64_t hash = run.dataset->contentHash();
    r.check(hash == g.datasetHash,
            std::string(g.space) + " dataset contentHash " + hex64(hash) +
                " != pinned " + hex64(g.datasetHash));
    const std::uint64_t digest = fnv1a(run.gpiBytes);
    r.check(digest == g.gpiDigest,
            std::string(g.space) + " .gpi digest " + hex64(digest) +
                " != pinned " + hex64(g.gpiDigest));
    std::string got;
    for (const unsigned m : run.members)
        got += std::to_string(m) + " ";
    r.check(run.members == g.members,
            std::string(g.space) + " portfolio members [" + got +
                "] differ from the pinned cover");
}

runner::Universe
makeUniverse(const std::string &space)
{
    runner::Universe u = runner::studyUniverse();
    u.space = dsl::ScheduleSpace::byName(space);
    u.validate();
    return u;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/**
 * The traced sweep layers, each public call on its own over the
 * universe, one span per call: generate, record, compact, price.
 */
void
traceSweepLayers(Result &r, Spans &spans, const runner::Universe &u)
{
    // graph + apps: generate every input, record every (app, input).
    double edges = 0.0;
    std::vector<dsl::AppTrace> traces;
    for (const runner::InputSpec &in : u.inputs) {
        const graph::Csr g =
            spans.time("graph.gen", [&] { return in.make(); });
        edges += static_cast<double>(g.numEdges());
        for (const std::string &app : u.apps) {
            traces.push_back(spans.time("apps.record", [&] {
                return apps::runApp(apps::appByName(app), g, in.name)
                    .second;
            }));
        }
    }

    // dsl: launch compaction.
    std::vector<dsl::CompactTrace> compact;
    double launches = 0.0;
    double unique = 0.0;
    for (const dsl::AppTrace &t : traces) {
        compact.push_back(
            spans.time("dsl.compact", [&] { return dsl::compactTrace(t); }));
        launches += static_cast<double>(compact.back().launchCount());
        unique += static_cast<double>(compact.back().uniqueCount());
    }

    // sim: price every (trace, chip, schedule) cell once, serially.
    double sink = 0.0;
    for (const std::string &chip : u.chips) {
        const sim::ChipModel &model = runner::chipFor(u, chip);
        for (const dsl::Schedule &s : u.space.all()) {
            spans.time("sim.price", [&] {
                const sim::CostEngine engine(model, s);
                for (const dsl::CompactTrace &c : compact)
                    sink += engine.appTimeNs(c);
            });
        }
    }
    r.check(sink > 0.0, "priced cells sum to a positive time");
    const double cells = static_cast<double>(
        traces.size() * u.chips.size() * u.space.size());

    r.metric("graph.gen_s", spans.total("graph.gen"), "s");
    r.metric("graph.edges", edges, "count");
    r.metric("apps.record_s", spans.total("apps.record"), "s");
    r.metric("apps.record_max_s", spans.longest("apps.record"), "s");
    r.metric("apps.traces",
             static_cast<double>(spans.count("apps.record")), "count");
    r.metric("dsl.compact_s", spans.total("dsl.compact"), "s");
    r.metric("dsl.launches_total", launches, "count");
    r.metric("dsl.launches_unique", unique, "count");
    r.metric("sim.price_s", spans.total("sim.price"), "s");
    r.metric("sim.cells", cells, "count");
    r.metric("sim.ns_per_cell", spans.total("sim.price") * 1e9 / cells,
             "ns");
}

/**
 * The calls StrategyIndex::build makes, one at a time, each checked
 * against what the index holds. Self time is the index build's span
 * minus these.
 */
void
tracePortLayers(Result &r, Spans &spans, const runner::Universe &u,
                const runner::Dataset &ds, const serve::StrategyIndex &index)
{
    const std::map<std::string, dsl::AppTrace> collected = spans.time(
        "port.collect_traces", [&] { return port::collectTraces(u); });
    for (std::size_t t = 0; t < ds.numTests(); ++t) {
        const runner::Test test = ds.testAt(t);
        const dsl::AppTrace &trace =
            collected.at(test.app + "|" + test.input);
        const port::WorkloadFeatures f = spans.time(
            "port.features", [&] { return port::extractFeatures(trace); });
        r.check(f == index.examples()[t].features,
                "features of " + test.label() + " match the index");
    }
    const std::vector<port::Strategy> strategies = spans.time(
        "port.strategies", [&] { return port::allStrategies(ds, kAlpha); });
    std::vector<port::Specialisation> specs = {{false, false, false}};
    for (const port::Specialisation &s : port::Specialisation::lattice())
        specs.push_back(s);
    specs.push_back({true, true, true});
    for (std::size_t i = 0; i < strategies.size() && i < specs.size(); ++i) {
        const port::StrategyTable table = spans.time("port.tabulate", [&] {
            return port::tabulateStrategy(ds, strategies[i], specs[i]);
        });
        r.check(i < index.tables().size() &&
                    table.configByPartition ==
                        index.tables()[i].configByPartition,
                "strategy table " + table.name + " matches the index");
    }
    std::map<std::string, bool> predicted;
    for (std::size_t t = 0; t < ds.numTests(); ++t) {
        const runner::Test test = ds.testAt(t);
        if (!predicted.emplace(test.app + "|" + test.input, true).second)
            continue;
        spans.time("port.loo_predict", [&] {
            return port::predictConfig(ds, collected, test.app,
                                       test.input, kKnnK);
        });
    }

    const char *portLayers[] = {"port.strategies", "port.tabulate",
                                "port.collect_traces", "port.features",
                                "port.loo_predict"};
    double portTotal = 0.0;
    for (const char *name : portLayers) {
        r.metric(std::string(name) + "_s", spans.total(name), "s");
        portTotal += spans.total(name);
    }
    r.metric("serve.index_build_s", spans.total("serve.index_build"), "s");
    r.metric("serve.index_self_s",
             spans.total("serve.index_build") - portTotal, "s");
}

} // namespace

Result
runStudy(const StudyOptions &o)
{
    checkGuardRails(o.threads);
    const Golden &golden = goldenFor(o.space);
    Result r;
    noteEnvironment(r, o.threads);
    r.note("space", o.space);

    // Set-up: build and validate the universe (median of 5).
    std::vector<double> setups;
    runner::Universe u;
    for (int i = 0; i < 5; ++i) {
        const Clock::time_point t0 = Clock::now();
        u = makeUniverse(o.space);
        setups.push_back(secondsBetween(t0, Clock::now()));
    }

    r.metric("setup_s", median(setups), "s");
    if (!o.trace) {
        std::vector<double> sweeps;
        std::vector<double> pipelines;
        std::vector<double> peaks;
        std::string gpi;
        for (unsigned rep = 0; rep < o.reps; ++rep) {
            // Each run's own peak: which sweep thread's heap keeps
            // which freed block varies, and a peak over all runs
            // would take the worst of them.
            resetPeakRss();
            {
                const PipelineRun run = runPipeline(u, o.threads, nullptr);
                checkGolden(r, golden, run);
                sweeps.push_back(run.sweepS);
                pipelines.push_back(run.pipelineS);
                gpi = run.gpiBytes;
            }
            peaks.push_back(peakRssMb());
        }
        if (!o.gpiOut.empty())
            writeFile(o.gpiOut, gpi);
        r.metric("sweep_s", median(sweeps), "s");
        r.metric("pipeline_s", median(pipelines), "s");
        r.metric("peak_rss_mb", median(peaks), "MB");
        r.note("sweep_s_reps", joined(sweeps));
        r.note("pipeline_s_reps", joined(pipelines));
        r.note("peak_rss_mb_reps", joined(peaks));
    } else {
        // A traced pipeline between two untraced ones: the difference
        // is what the spans cost.
        auto plainRun = [&] {
            const PipelineRun run = runPipeline(u, o.threads, nullptr);
            checkGolden(r, golden, run);
            return run.pipelineS;
        };
        const double plainFirst = plainRun();
        Spans spans;
        const PipelineRun traced = runPipeline(u, o.threads, &spans);
        checkGolden(r, golden, traced);
        const double plain = (plainFirst + plainRun()) / 2;
        r.metric("bench.trace_overhead_pct",
                 100.0 * (traced.pipelineS - plain) / plain, "%");

        const std::unique_ptr<runner::Dataset> serial =
            spans.time("runner.build_1t", [&] {
                runner::BuildOptions one;
                one.threads = 1;
                return std::make_unique<runner::Dataset>(
                    runner::Dataset::build(u, one));
            });
        r.check(serial->contentHash() == golden.datasetHash,
                "1-thread " + o.space + " contentHash " +
                    hex64(serial->contentHash()));

        // Port first: the sweep decomposition keeps every graph and
        // trace alive, and the port calls should not run in its heap.
        tracePortLayers(r, spans, u, *traced.dataset,
                        traced.advisor->lease()->index);
        traceSweepLayers(r, spans, u);
        r.metric("runner.build_s", spans.total("runner.build"), "s");
        r.metric("runner.build_1t_s", spans.total("runner.build_1t"), "s");
        r.metric("runner.speedup",
                 spans.total("runner.build_1t") / spans.total("runner.build"),
                 "x");
        r.metric("portfolio.matrix_s", spans.total("portfolio.matrix"), "s");
        r.metric("portfolio.solve_s", spans.total("portfolio.solve"), "s");
        r.metric("portfolio.members",
                 static_cast<double>(traced.members.size()), "count");
        if (!o.gpiOut.empty()) {
            spans.time("serve.snapshot_save", [&] {
                traced.advisor->lease()->index.saveFile(o.gpiOut);
            });
        }
        r.metric("serve.snapshot_save_s",
                 spans.total("serve.snapshot_save"), "s");
    }
    return r;
}

} // namespace perfbench

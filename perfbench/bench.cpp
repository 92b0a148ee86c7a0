#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double
quantile(std::vector<double> &samples, double q)
{
    if (samples.empty())
        return 0.0;
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const std::size_t k = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(samples.size()))) - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(k),
                     samples.end());
    return samples[k];
}

double
median(std::vector<double> samples)
{
    return quantile(samples, 0.5);
}

double
peakRssMb()
{
    // VmHWM rather than getrusage: resetPeakRss() can reset it.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

void
checkGuardRails(unsigned threads)
{
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    throw std::runtime_error(
        "refusing to measure an unoptimised build (build type '" +
        std::string(PERFBENCH_BUILD_TYPE) +
        "'); configure with -DCMAKE_BUILD_TYPE=Release");
#endif
    const unsigned cpus = usableCpus();
    if (threads == 0 || threads > cpus) {
        throw std::runtime_error(
            "refusing to run " + std::to_string(threads) +
            " threads on " + std::to_string(cpus) +
            " usable CPUs (nproc); pass --threads 1.." +
            std::to_string(cpus));
    }
}

std::string
joined(const std::vector<double> &values)
{
    std::ostringstream os;
    os.precision(6);
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? " " : "") << values[i];
    return os.str();
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
Spans::record(const std::string &name, double seconds)
{
    byName_[name].push_back(seconds);
}

double
Spans::total(const std::string &name) const
{
    const auto it = byName_.find(name);
    double sum = 0.0;
    if (it != byName_.end()) {
        for (const double s : it->second)
            sum += s;
    }
    return sum;
}

double
Spans::longest(const std::string &name) const
{
    const auto it = byName_.find(name);
    if (it == byName_.end() || it->second.empty())
        return 0.0;
    return *std::max_element(it->second.begin(), it->second.end());
}

std::size_t
Spans::count(const std::string &name) const
{
    const auto it = byName_.find(name);
    return it == byName_.end() ? 0 : it->second.size();
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

} // namespace

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics.push_back({name, {value, unit}});
}

void
Result::note(const std::string &key, const std::string &value)
{
    info.push_back({key, jsonString(value)});
}

void
Result::note(const std::string &key, double value)
{
    info.push_back({key, jsonNumber(value)});
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    // Report the first few causes; the count carries the rest.
    if (++failed <= 5)
        std::cerr << "perfbench: incorrect output: " << what << "\n";
}

std::string
Result::json() const
{
    std::string out = "{\"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", " : "") + jsonString(metrics[i].first) +
               ": {\"value\": " + jsonNumber(metrics[i].second.first) +
               ", \"unit\": " + jsonString(metrics[i].second.second) +
               "}";
    }
    out += "}, \"info\": {";
    for (std::size_t i = 0; i < info.size(); ++i) {
        out += (i ? ", " : "") + jsonString(info[i].first) + ": " +
               info[i].second;
    }
    return out + "}}";
}

void
noteEnvironment(Result &r, unsigned threads)
{
    r.note("nproc", static_cast<double>(usableCpus()));
    r.note("threads", static_cast<double>(threads));
#ifdef __clang__
    r.note("compiler", __VERSION__);
#else
    r.note("compiler", std::string("g++ ") + __VERSION__);
#endif
    r.note("build_type", PERFBENCH_BUILD_TYPE);
}

} // namespace perfbench

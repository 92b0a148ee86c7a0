/**
 * @file
 * perfbench: the measuring binary behind perfbench/run.py.
 *
 *   perfbench study --space legacy|extended --threads N --reps R
 *                   --trace 0|1 [--gpi-out FILE]
 *   perfbench serve --gpi FILE --mix mixed|known --seed N --threads N
 *                   --seconds S --trace 0|1
 *
 * Prints one JSON line: attempted and failed operation counts, the
 * metrics, and notes on the toolchain, seeds and sample counts.
 * Exits 2 on a usage error or a refused configuration.
 */
#include <cstdlib>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "phases.hpp"

namespace {

std::map<std::string, std::string>
parseFlags(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 2; i < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::runtime_error("expected --flag value, got '" + key +
                                     "'");
        flags[key.substr(2)] = argv[i + 1];
    }
    return flags;
}

std::string
take(std::map<std::string, std::string> &flags, const std::string &key,
     const std::string &fallback)
{
    const auto it = flags.find(key);
    if (it == flags.end())
        return fallback;
    const std::string v = it->second;
    flags.erase(it);
    return v;
}

void
rejectLeftovers(const std::map<std::string, std::string> &flags)
{
    if (!flags.empty())
        throw std::runtime_error("unknown flag --" + flags.begin()->first);
}

unsigned long long
number(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used != text.size())
        throw std::runtime_error("--" + flag + " expects a number");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            throw std::runtime_error(
                "usage: perfbench study|serve --flag value ...");
        const std::string cmd = argv[1];
        std::map<std::string, std::string> flags = parseFlags(argc, argv);
        const unsigned threads = static_cast<unsigned>(
            number("threads", take(flags, "threads", "1")));
        const bool trace = take(flags, "trace", "0") == "1";
        perfbench::Result result;
        if (cmd == "study") {
            perfbench::StudyOptions o;
            o.space = take(flags, "space", o.space);
            o.threads = threads;
            o.reps = static_cast<unsigned>(
                number("reps", take(flags, "reps", "3")));
            if (o.reps == 0)
                throw std::runtime_error("--reps must be at least 1");
            o.trace = trace;
            o.gpiOut = take(flags, "gpi-out", "");
            rejectLeftovers(flags);
            result = perfbench::runStudy(o);
        } else if (cmd == "serve") {
            perfbench::ServeOptions o;
            o.gpi = take(flags, "gpi", "");
            o.mix = take(flags, "mix", o.mix);
            o.seed = number("seed", take(flags, "seed", "1"));
            o.threads = threads;
            o.seconds = std::stod(take(flags, "seconds", "1"));
            o.trace = trace;
            rejectLeftovers(flags);
            if (o.gpi.empty())
                throw std::runtime_error("serve needs --gpi FILE");
            result = perfbench::runServe(o);
        } else {
            throw std::runtime_error("unknown subcommand '" + cmd + "'");
        }
        std::cout << result.json() << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}

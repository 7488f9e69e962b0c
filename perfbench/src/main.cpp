/**
 * @file
 * Benchmark program: runs one named workload for a fixed host-time
 * budget and prints one JSON object as its last stdout line:
 *
 *   {"attempted": N, "failed": N, "fingerprint": "0x...",
 *    "end_to_end": {name: {"value": v, "unit": u}, ...},
 *    "per_layer": {...}}
 *
 * perfbench/run.py builds this program, runs it, and turns that line
 * into the benchmark's result line. Exit status is 0 only when every
 * correctness check passed.
 *
 *   $ perfbench --workload infer_resnet20 --seed 0 --seconds 10 \
 *       --trace 0 --work-dir .bench_build/perfbench/work
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "Harness.h"

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--work-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::strtod(value, nullptr);
        else if (arg == "--trace")
            opt.trace = std::strcmp(value, "0") != 0;
        else if (arg == "--work-dir")
            opt.workDir = value;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    // A fixed thread count, capped by the cores present, so the serve
    // runs' host times compare across machines with at least 4 cores.
    const std::size_t cores = std::thread::hardware_concurrency();
    opt.threads = std::max<std::size_t>(
        1, std::min<std::size_t>(4, cores == 0 ? 1 : cores));
    return opt;
}

void
printMetrics(const char *key, const std::map<std::string, Metric> &m,
             bool last)
{
    std::printf("\"%s\": {", key);
    bool first = true;
    for (const auto &[name, metric] : m) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), metric.value,
                    metric.unit.c_str());
        first = false;
    }
    std::printf("}%s", last ? "" : ", ");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::filesystem::create_directories(opt.workDir);
    Tracer tracer(opt.trace);

    Result result;
    try {
        if (opt.workload == "infer_resnet20")
            result = runInferResnet20(opt, tracer);
        else if (opt.workload == "serve_fleet")
            result = runServeFleet(opt, tracer);
        else if (opt.workload == "serve_stream")
            result = runServeStream(opt, tracer);
        else if (opt.workload == "paper_figures")
            result = runPaperFigures(opt, tracer);
        else
            usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }

    for (const auto &[name, metric] : result.endToEnd)
        result.check(std::isfinite(metric.value),
                     "end-to-end metric " + name + " is finite");

    char fp[32];
    std::snprintf(fp, sizeof(fp), "0x%016llx",
                  static_cast<unsigned long long>(result.fingerprint));
    result.notes.insert(result.notes.begin(),
                        "workload=" + opt.workload +
                            " seed=" + std::to_string(opt.seed) +
                            " threads=" + std::to_string(opt.threads) +
                            " nproc=" +
                            std::to_string(
                                std::thread::hardware_concurrency()) +
                            " sim_fingerprint=" + fp);
    for (const std::string &note : result.notes)
        std::fprintf(stderr, "perfbench: %s\n", note.c_str());
    if (opt.trace) {
        const std::string path = opt.workDir + "/trace-" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".jsonl";
        tracer.write(path, result.notes);
        std::fprintf(stderr, "perfbench: trace written to %s\n",
                     path.c_str());
    }

    std::printf("{\"attempted\": %llu, \"failed\": %llu, "
                "\"fingerprint\": \"%s\", ",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed), fp);
    printMetrics("end_to_end", result.endToEnd, false);
    printMetrics("per_layer", result.perLayer, true);
    std::printf("}\n");
    return result.failed == 0 ? 0 : 1;
}

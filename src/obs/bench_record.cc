#include "bench_record.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/metrics.hh"

namespace fits::obs {

BenchRecord::BenchRecord(std::string name)
    : name_(std::move(name))
{
}

void
BenchRecord::add(std::string key, double value)
{
    numbers_.emplace_back(std::move(key), value);
}

void
BenchRecord::add(std::string key, std::string value)
{
    strings_.emplace_back(std::move(key), std::move(value));
}

std::string
BenchRecord::toJson() const
{
    std::string out = "{\n  \"bench\": ";
    appendJsonString(out, name_);
    out += ",\n  \"fields\": {";
    bool first = true;
    for (const auto &[key, value] : numbers_) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, key);
        out += ": ";
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g",
                      std::isfinite(value) ? value : 0.0);
        out += buf;
    }
    for (const auto &[key, value] : strings_) {
        out += first ? "\n    " : ",\n    ";
        first = false;
        appendJsonString(out, key);
        out += ": ";
        appendJsonString(out, value);
    }
    out += "\n  },\n  \"metrics\": ";
    // Indent the registry document to keep the record readable.
    const std::string metrics = Registry::instance().toJson();
    for (const char c : metrics) {
        out += c;
        if (c == '\n')
            out += "  ";
    }
    while (!out.empty() &&
           (out.back() == ' ' || out.back() == '\n'))
        out.pop_back();
    out += "\n}\n";
    return out;
}

std::string
BenchRecord::outputPath() const
{
    std::string dir;
    if (const char *env = std::getenv("FITS_BENCH_DIR")) {
        dir = env;
        if (!dir.empty() && dir.back() != '/')
            dir += '/';
    }
    return dir + "BENCH_" + name_ + ".json";
}

bool
BenchRecord::write() const
{
    const std::string path = outputPath();
    std::ofstream out(path);
    if (out)
        out << toJson();
    if (!out) {
        std::fprintf(stderr, "bench: cannot write %s\n",
                     path.c_str());
        return false;
    }
    std::printf("\n[bench json: %s]\n", path.c_str());
    return true;
}

} // namespace fits::obs

#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>

namespace perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values_.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(index, values_.size() - 1)];
}

bool Samples::Supports(double p) const { return Supports(p, values_.size()); }

bool Samples::Supports(double p, size_t n) {
  return static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0;
}

double Samples::HighestSupported() const {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (Supports(p)) best = p;
  }
  return best;
}

void ChunkedSamples::Append(const ChunkedSamples& other) {
  all_.Append(other.all_);
  timed_.insert(timed_.end(), other.timed_.begin(), other.timed_.end());
}

Samples ChunkedSamples::Chunk(int c) const {
  std::sort(timed_.begin(), timed_.end());
  const size_t begin = timed_.size() * c / kChunks;
  const size_t end = timed_.size() * (c + 1) / kChunks;
  Samples chunk;
  for (size_t i = begin; i < end; ++i) chunk.Add(timed_[i].second);
  return chunk;
}

double ChunkedSamples::MedianOfChunks(double p) const {
  double values[kChunks];
  for (int c = 0; c < kChunks; ++c) values[c] = Chunk(c).Percentile(p);
  std::sort(values, values + kChunks);
  return values[kChunks / 2];
}

bool ChunkedSamples::Supports(double p) const {
  return Samples::Supports(p, timed_.size() / kChunks);
}

ProcCounters ReadProcCounters() {
  ProcCounters out;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.cpu_ms = (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
               (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e3;
  std::ifstream io("/proc/self/io");
  for (std::string key; io >> key;) {
    uint64_t value = 0;
    io >> value;
    if (key == "wchar:") out.wchar = value;
  }
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return out;
}

uint64_t DirBytes(const std::string& dir, const std::string& name) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (!name.empty() && it->path().filename() != name) continue;
    total += it->file_size(ec);
  }
  return total;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace perfbench

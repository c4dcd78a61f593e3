#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>

#include "bench.h"

namespace perfbench {

// ------------------------------------------------------------- statistics --

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_ms = ru.ru_utime.tv_sec * 1e3 + ru.ru_utime.tv_usec / 1e3;
  u.sys_ms = ru.ru_stime.tv_sec * 1e3 + ru.ru_stime.tv_usec / 1e3;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

HostCpu ReadHostCpu() {
  HostCpu out;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return out;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  uint64_t fields[8] = {};
  for (uint64_t& f : fields) {
    if (!(in >> f)) return HostCpu{};
  }
  for (uint64_t f : fields) out.total += f;
  out.steal = fields[7];
  return out;
}

double StealFrac(const HostCpu& before, const HostCpu& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

Windows::Windows(double seconds, int count)
    : count_(count),
      start_ns_(NowNs()),
      window_ns_(static_cast<int64_t>(seconds * 1e9 / count)) {
  usage_.reserve(static_cast<size_t>(count) + 1);
  host_.reserve(static_cast<size_t>(count) + 1);
  usage_.push_back(ReadUsage());
  host_.push_back(ReadHostCpu());
  sampler_ = std::thread([this] {
    for (int w = 1; w <= count_; ++w) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(start_ns_ + window_ns_ * w)));
      usage_.push_back(ReadUsage());
      host_.push_back(ReadHostCpu());
    }
  });
}

Windows::~Windows() {
  if (sampler_.joinable()) sampler_.join();
}

void Windows::Join() {
  if (sampler_.joinable()) sampler_.join();
  const size_t n = host_.empty() ? 0 : host_.size() - 1;
  if (n == 0) return;
  std::vector<double> steal;
  for (size_t w = 0; w < n; ++w) steal.push_back(WindowSteal(w));
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  // Every window at most as stolen-from as the quietest eighth: on a quiet
  // host that is most of the run, on a busy one its best few seconds.
  const double threshold = sorted[(n + 7) / 8 - 1];
  quiet_.clear();
  for (size_t w = 0; w < n; ++w) {
    if (steal[w] <= threshold) quiet_.push_back(static_cast<int>(w));
  }
}

double Windows::WindowSteal(size_t w) const {
  return StealFrac(host_[w], host_[w + 1]);
}

bool Windows::IsQuiet(int64_t t) const {
  if (t < start_ns_ || t >= end_ns()) return false;
  const int w = static_cast<int>((t - start_ns_) / window_ns_);
  return std::binary_search(quiet_.begin(), quiet_.end(), w);
}

size_t Windows::Inside(const std::vector<int64_t>& ends) const {
  size_t n = 0;
  for (int64_t t : ends) n += IsQuiet(t) ? 1 : 0;
  return n;
}

double Windows::Rate(const std::vector<int64_t>& ends) const {
  const double seconds = static_cast<double>(window_ns_) / 1e9 *
                         static_cast<double>(quiet_.size());
  return static_cast<double>(Inside(ends)) / seconds;
}

double Windows::Quantile(const std::vector<Timed>& samples, double q) const {
  std::vector<double> inside;
  for (const Timed& s : samples) {
    if (IsQuiet(s.end_ns)) inside.push_back(s.us);
  }
  return perfbench::Quantile(std::move(inside), q);
}

double Windows::CpuMsPer(const std::vector<int64_t>& ends) const {
  double cpu_ms = 0.0;
  for (int w : quiet_) {
    const Usage& a = usage_[static_cast<size_t>(w)];
    const Usage& b = usage_[static_cast<size_t>(w) + 1];
    cpu_ms += b.user_ms + b.sys_ms - a.user_ms - a.sys_ms;
  }
  return cpu_ms / static_cast<double>(Inside(ends));
}

double Windows::Steal() const {
  return host_.size() < 2 ? 0.0 : StealFrac(host_.front(), host_.back());
}

double Windows::QuietSteal() const {
  std::vector<double> steal;
  for (int w : quiet_) steal.push_back(WindowSteal(static_cast<size_t>(w)));
  return Median(steal);
}

uint64_t Mix(uint64_t digest, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xFF;
    digest *= 0x100000001B3ull;
  }
  return digest;
}

// ----------------------------------------------------------------- report --

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
  std::cout << "metric " << name << " = " << value << " " << unit;
  if (samples > 0) std::cout << "  (n=" << samples << ")";
  std::cout << "\n";
}

void Report::Fail(const std::string& what) {
  failures_.push_back(what);
  std::cout << "CHECK FAILED: " << what << "\n";
}

void Report::Pass(const std::string& what) {
  std::cout << "check ok: " << what << "\n";
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    out << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// ----------------------------------------------------------------- tracing --

std::atomic<bool> Tracer::enabled_{false};

namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  uint64_t request = 0;
  std::vector<SpanRecord> spans;
  std::vector<int32_t> open;  ///< indexes of the currently open spans
};

std::mutex g_buffers_mu;
// Buffers outlive their threads (a thread may exit before Collect); they are
// emptied, never freed, so a live thread's pointer stays valid.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
std::atomic<uint64_t> g_next_request{1};
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer* Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<uint32_t>(g_buffers.size());
    t_buffer->spans.reserve(1 << 14);
  }
  return t_buffer;
}

}  // namespace

void Tracer::SetRequest(uint64_t request) { Buffer()->request = request; }

uint64_t Tracer::NewRequestId() { return g_next_request.fetch_add(1); }

int32_t Tracer::Open(const char* name, uint64_t key) {
  ThreadBuffer* b = Buffer();
  SpanRecord r;
  r.name = name;
  r.key = key;
  r.parent = b->open.empty() ? -1 : b->open.back();
  r.thread = b->thread;
  r.request = b->request;
  const int32_t index = static_cast<int32_t>(b->spans.size());
  b->open.push_back(index);
  r.start_ns = NowNs();
  b->spans.push_back(r);
  return index;
}

void Tracer::Close(int32_t index) {
  const int64_t end = NowNs();
  ThreadBuffer* b = Buffer();
  b->spans[static_cast<size_t>(index)].end_ns = end;
  b->open.pop_back();
}

std::vector<SpanRecord> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> out;
  for (const auto& b : g_buffers) {
    const int32_t offset = static_cast<int32_t>(out.size());
    for (SpanRecord r : b->spans) {
      if (r.end_ns == 0) continue;  // still open: never happens after a phase
      if (r.parent >= 0) r.parent += offset;
      out.push_back(r);
    }
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : g_buffers) {
    b->spans.clear();
    b->open.clear();
  }
}

bool Tracer::Dump(const std::vector<SpanRecord>& spans,
                  const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "name\tstart_ns\tend_ns\tparent\tthread\trequest\tkey\n";
  for (const SpanRecord& s : spans) {
    out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
        << s.parent << '\t' << s.thread << '\t' << s.request << '\t'
        << s.key << '\n';
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------ span analysis --

namespace {

bool HasPrefix(const char* name, const char* prefix) {
  return std::strncmp(name, prefix, std::strlen(prefix)) == 0;
}

}  // namespace

void SpanTree::LinkAcrossThreads(const char* child,
                                 const std::vector<const char*>& parents) {
  std::vector<int32_t> parent_idx;
  for (size_t i = 0; i < spans.size(); ++i) {
    for (const char* p : parents) {
      if (std::strcmp(spans[i].name, p) == 0) {
        parent_idx.push_back(static_cast<int32_t>(i));
        break;
      }
    }
  }
  std::sort(parent_idx.begin(), parent_idx.end(), [&](int32_t a, int32_t b) {
    return spans[a].start_ns < spans[b].start_ns;
  });
  const auto containing = [&](const SpanRecord& c) {
    std::vector<int32_t> out;
    auto it = std::upper_bound(
        parent_idx.begin(), parent_idx.end(), c.start_ns,
        [&](int64_t t, int32_t p) { return t < spans[p].start_ns; });
    // Only a handful of parents are open at once (two clients), so the
    // containing ones are among the last few that started.
    for (int scanned = 0; it != parent_idx.begin() && scanned < 64;
         ++scanned) {
      --it;
      const SpanRecord& p = spans[*it];
      if (p.thread != c.thread && p.end_ns >= c.end_ns &&
          (c.key == 0 || p.key == 0 || c.key == p.key)) {
        out.push_back(*it);
      }
    }
    return out;
  };

  std::vector<int32_t> child_idx;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 && std::strcmp(spans[i].name, child) == 0) {
      child_idx.push_back(static_cast<int32_t>(i));
    }
  }
  // Thread affinity: a transport thread serving one connection answers one
  // caller thread only, so that thread's spans contain all of its spans
  // while another caller's contain only those that happened to overlap.
  // The caller thread that contains >= 90% of a child thread's spans, and
  // more than any other, is that child thread's only parent thread.
  std::map<uint32_t, std::map<uint32_t, size_t>> contained;  // child, parent
  std::map<uint32_t, size_t> child_spans;
  for (int32_t c : child_idx) {
    ++child_spans[spans[c].thread];
    std::vector<uint32_t> threads;
    for (int32_t p : containing(spans[c])) threads.push_back(spans[p].thread);
    std::sort(threads.begin(), threads.end());
    threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
    for (uint32_t t : threads) ++contained[spans[c].thread][t];
  }
  std::map<uint32_t, uint32_t> affinity;
  for (const auto& [child_thread, counts] : contained) {
    size_t best = 0, second = 0;
    uint32_t best_thread = 0;
    for (const auto& [parent_thread, n] : counts) {
      if (n > best) {
        second = best;
        best = n;
        best_thread = parent_thread;
      } else if (n > second) {
        second = n;
      }
    }
    if (best * 10 >= child_spans[child_thread] * 9 && best > second) {
      affinity[child_thread] = best_thread;
    }
  }
  std::vector<int> links(spans.size(), 0);
  for (int32_t c : child_idx) {
    std::vector<int32_t> candidates = containing(spans[c]);
    if (const auto it = affinity.find(spans[c].thread); it != affinity.end()) {
      std::erase_if(candidates, [&, pt = it->second](int32_t p) {
        return spans[p].thread != pt;
      });
    }
    if (candidates.empty()) continue;
    if (candidates.size() > 1) ++ambiguous_links;
    // Prefer the parent with the fewest links so far, then the earliest:
    // concurrent requests of one kind are answered roughly in order.
    int32_t pick = candidates.front();
    for (int32_t p : candidates) {
      if (links[p] < links[pick] ||
          (links[p] == links[pick] && spans[p].start_ns < spans[pick].start_ns)) {
        pick = p;
      }
    }
    ++links[pick];
    spans[c].parent = pick;
    spans[c].request = spans[pick].request;
  }
}

void SpanTree::BuildChildren() {
  children.assign(spans.size(), {});
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(
          static_cast<int32_t>(i));
    }
  }
}

double SpanTree::SelfUs(size_t index) const {
  const SpanRecord& s = spans[index];
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (int32_t c : children[index]) {
    const int64_t lo = std::max(s.start_ns, spans[c].start_ns);
    const int64_t hi = std::min(s.end_ns, spans[c].end_ns);
    if (hi > lo) covered.push_back({lo, hi});
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0, cur_lo = 0, cur_hi = -1;
  for (const auto& [lo, hi] : covered) {
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) union_ns += cur_hi - cur_lo;
  return static_cast<double>(s.end_ns - s.start_ns - union_ns) / 1e3;
}

std::vector<double> SpanTree::SelfTimesUs(const char* name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (HasPrefix(spans[i].name, name)) out.push_back(SelfUs(i));
  }
  return out;
}

std::vector<double> SpanTree::DurationsUs(const char* name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (HasPrefix(s.name, name)) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::map<std::string, std::vector<double>> SpanTree::LayerSelfUnder(
    const char* root) const {
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, root) != 0) continue;
    std::map<std::string, double> sums;
    std::vector<int32_t> stack(children[i].begin(), children[i].end());
    while (!stack.empty()) {
      const int32_t c = stack.back();
      stack.pop_back();
      const std::string name = spans[c].name;
      sums[name.substr(0, name.find('.'))] += SelfUs(static_cast<size_t>(c));
      stack.insert(stack.end(), children[c].begin(), children[c].end());
    }
    for (const auto& [layer, us] : sums) out[layer].push_back(us);
  }
  return out;
}

}  // namespace perfbench

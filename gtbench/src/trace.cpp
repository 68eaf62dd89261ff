// gtbench/src/trace.cpp — span storage, self-time derivation, export.
#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common.hpp"

namespace gtbench {

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::uint32_t Tracer::open(const char* name, std::uint64_t req,
                           std::uint32_t parent, std::int64_t start) {
  return add(name, req, parent, start, start);
}

void Tracer::close(std::uint32_t id, std::int64_t end) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = end;
}

std::uint32_t Tracer::add(const char* name, std::uint64_t req,
                          std::uint32_t parent, std::int64_t start,
                          std::int64_t end, bool derived) {
  if (!on()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, req, parent, start, end, derived});
  return static_cast<std::uint32_t>(spans_.size());
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::size_t Tracer::count(std::uint64_t req_lo, std::uint64_t req_hi) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Span& s : spans_) n += s.req >= req_lo && s.req < req_hi;
  return n;
}

std::map<std::string, double> Tracer::self_ns_by_module(std::uint64_t req_lo,
                                                        std::uint64_t req_hi) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent != 0) kids[s.parent - 1].emplace_back(s.start, s.end);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.req < req_lo || s.req >= req_hi) continue;
    // Union of the children's intervals, clipped to the parent.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    const std::string name = s.name;
    out[name.substr(0, name.find('.'))] +=
        double(std::max<std::int64_t>(0, s.end - s.start - covered));
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"req\":%llu,\"parent\":%u,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"derived\":%s}\n",
                 i + 1, s.name, static_cast<unsigned long long>(s.req),
                 s.parent, static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.derived ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

Scoped::Scoped(const char* name, std::uint64_t req, std::uint32_t parent) {
  if (tracer().on()) id_ = tracer().open(name, req, parent, now_ns());
}

Scoped::~Scoped() {
  if (id_ != 0) tracer().close(id_, now_ns());
}

}  // namespace gtbench

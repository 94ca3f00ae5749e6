#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <vector>

namespace cumf::obs {

namespace {

/// Small dense per-thread id, assigned on first use. Chrome trace "tid"s
/// only need to be stable and distinct, not OS thread ids.
std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// JSON string escaping. Names and keys are our own literals, but thread
/// names pass through here too, so escape defensively.
void append_escaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void append_f(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *out += buf;
}

void append_u64(std::string* out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

TraceCollector& TraceCollector::global() {
  static TraceCollector collector;
  return collector;
}

void TraceCollector::enable(Options opt) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_ == nullptr) {
    capacity_ = round_up_pow2(opt.capacity == 0 ? 1 : opt.capacity);
    mask_ = capacity_ - 1;
    ring_ = std::make_unique<Slot[]>(capacity_);
  }
  sample_every_.store(opt.sample_every == 0 ? 1 : opt.sample_every,
                      std::memory_order_relaxed);
  // Release: writers that acquire-observe enabled_ == true also see the
  // ring pointer / mask stores above.
  enabled_.store(true, std::memory_order_release);
}

bool TraceCollector::sample() {
  if (!enabled_.load(std::memory_order_acquire)) return false;
  const std::uint64_t every = sample_every_.load(std::memory_order_relaxed);
  if (every <= 1) return true;
  return sample_ctr_.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

double TraceCollector::now_us() const {
  return to_us(std::chrono::steady_clock::now());
}

double TraceCollector::to_us(std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration<double, std::micro>(tp - epoch_).count();
}

void TraceCollector::record_span(const char* name, double begin_us,
                                 double end_us, TraceArg a, TraceArg b,
                                 TraceArg c) {
  record_event(name, 'X', begin_us, end_us - begin_us, a, b, c);
}

void TraceCollector::record_instant(const char* name, TraceArg a, TraceArg b,
                                    TraceArg c) {
  record_event(name, 'i', now_us(), 0.0, a, b, c);
}

void TraceCollector::record_event(const char* name, char phase, double ts_us,
                                  double dur_us, const TraceArg& a,
                                  const TraceArg& b, const TraceArg& c) {
  if (!enabled_.load(std::memory_order_acquire)) return;
  const std::uint64_t ticket =
      cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring_[ticket & mask_];
  // Seqlock write: odd tag while the payload is in flux, even when stable.
  // The exporter validates the even tag before and after copying, so a slot
  // it races with is skipped rather than exported torn. Payload stores are
  // release so a reader that acquires any of them also sees the odd tag
  // (no standalone fences: ThreadSanitizer does not model them).
  constexpr auto kRel = std::memory_order_release;
  slot.seq.store(2 * ticket + 1, kRel);
  slot.name.store(name, kRel);
  slot.phase.store(static_cast<std::uint8_t>(phase), kRel);
  slot.tid.store(current_tid(), kRel);
  slot.ts_us.store(ts_us, kRel);
  slot.dur_us.store(dur_us, kRel);
  slot.k0.store(a.key, kRel);
  slot.v0.store(a.value, kRel);
  slot.k1.store(b.key, kRel);
  slot.v1.store(b.value, kRel);
  slot.k2.store(c.key, kRel);
  slot.v2.store(c.value, kRel);
  slot.seq.store(2 * ticket + 2, kRel);
}

void TraceCollector::set_thread_name(const char* name) {
  const std::uint32_t tid = current_tid();
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[tid] = name;
}

std::uint64_t TraceCollector::events_dropped() const {
  const std::uint64_t total = cursor_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_ > 0 && total > capacity_ ? total - capacity_ : 0;
}

std::string TraceCollector::export_chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out += "{\"traceEvents\":[";
  bool first = true;

  for (const auto& [tid, name] : thread_names_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    append_u64(&out, tid);
    out += ",\"args\":{\"name\":\"";
    append_escaped(&out, name.c_str());
    out += "\"}}";
  }

  if (ring_ != nullptr) {
    const std::uint64_t end = cursor_.load(std::memory_order_acquire);
    const std::uint64_t begin = end > capacity_ ? end - capacity_ : 0;
    for (std::uint64_t t = begin; t < end; ++t) {
      const Slot& slot = ring_[t & mask_];
      const std::uint64_t want = 2 * t + 2;
      constexpr auto kAcq = std::memory_order_acquire;
      if (slot.seq.load(kAcq) != want) continue;
      // Seqlock read validation: acquire payload loads keep the re-check
      // from moving above them, and one that read a newer writer's (release)
      // store makes that writer's odd tag visible to the re-check.
      const char* name = slot.name.load(kAcq);
      const char phase = static_cast<char>(slot.phase.load(kAcq));
      const std::uint32_t tid = slot.tid.load(kAcq);
      const double ts = slot.ts_us.load(kAcq);
      const double dur = slot.dur_us.load(kAcq);
      const char* keys[3] = {slot.k0.load(kAcq), slot.k1.load(kAcq),
                             slot.k2.load(kAcq)};
      const std::uint64_t vals[3] = {slot.v0.load(kAcq), slot.v1.load(kAcq),
                                     slot.v2.load(kAcq)};
      if (slot.seq.load(std::memory_order_relaxed) != want) continue;
      if (name == nullptr) continue;

      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      append_escaped(&out, name);
      out += "\",\"ph\":\"";
      out += phase;
      out += "\",\"ts\":";
      append_f(&out, ts);
      if (phase == 'X') {
        out += ",\"dur\":";
        append_f(&out, dur < 0.0 ? 0.0 : dur);
      } else if (phase == 'i') {
        out += ",\"s\":\"g\"";  // global-scope instant: full-height marker
      }
      out += ",\"pid\":1,\"tid\":";
      append_u64(&out, tid);
      bool any_arg = false;
      for (int i = 0; i < 3; ++i) {
        if (keys[i] == nullptr) continue;
        out += any_arg ? "," : ",\"args\":{";
        any_arg = true;
        out += '"';
        append_escaped(&out, keys[i]);
        out += "\":";
        append_u64(&out, vals[i]);
      }
      if (any_arg) out += '}';
      out += '}';
    }
  }

  out += "]}";
  return out;
}

bool TraceCollector::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  const std::string json = export_chrome_json();
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(f);
}

void TraceCollector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_ != nullptr) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      ring_[i].seq.store(0, std::memory_order_relaxed);
      ring_[i].name.store(nullptr, std::memory_order_relaxed);
    }
  }
  cursor_.store(0, std::memory_order_release);
}

}  // namespace cumf::obs

/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is one call into a layer: name, start, end, parent span and
 * request id.  A mark is a point in time inside a request (the
 * executor picking the job up).  Spans stay in memory and are written
 * out once, when the run ends.  A span's self time is its duration
 * minus the durations of its child spans (children never overlap:
 * every parent makes its calls one after another).
 */
#ifndef SERVEBENCH_TRACE_H
#define SERVEBENCH_TRACE_H

#include <chrono>
#include <fstream>
#include <string>
#include <vector>

#include "common/sync.h"

namespace servebench {

using rfv::i64;
using rfv::u64;

struct Span {
    const char *name = ""; //!< static string: the layer call's name
    u64 request = 0;
    i64 startNs = 0; //!< since the tracer's epoch
    i64 endNs = 0;
    i64 parent = -1; //!< index of the parent span, -1 at a root
};

struct Mark {
    const char *name = "";
    u64 request = 0;
    i64 atNs = 0;
};

class Tracer {
  public:
    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    i64
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /** Start a span now; returns its id for close(). */
    i64
    open(const char *name, u64 request, i64 parent = -1)
    {
        const i64 t = now();
        rfv::MutexLock lk(mu_);
        spans_.push_back({name, request, t, t, parent});
        return static_cast<i64>(spans_.size()) - 1;
    }

    /** End span @p id now. */
    void
    close(i64 id)
    {
        const i64 t = now();
        rfv::MutexLock lk(mu_);
        spans_[static_cast<size_t>(id)].endNs = t;
    }

    /** Rename span @p id (for calls whose outcome names the span). */
    void
    rename(i64 id, const char *name)
    {
        rfv::MutexLock lk(mu_);
        spans_[static_cast<size_t>(id)].name = name;
    }

    void
    mark(const char *name, u64 request, i64 atNs)
    {
        rfv::MutexLock lk(mu_);
        marks_.push_back({name, request, atNs});
    }

    /** Snapshot of every span (call once recording has stopped). */
    std::vector<Span>
    spans() const
    {
        rfv::MutexLock lk(mu_);
        return spans_;
    }

    std::vector<Mark>
    marks() const
    {
        rfv::MutexLock lk(mu_);
        return marks_;
    }

    /** Self time in ns of every span, indexed like spans(). */
    static std::vector<i64>
    selfNs(const std::vector<Span> &spans)
    {
        std::vector<i64> self(spans.size());
        for (size_t i = 0; i < spans.size(); ++i)
            self[i] += spans[i].endNs - spans[i].startNs;
        for (const Span &s : spans)
            if (s.parent >= 0)
                self[static_cast<size_t>(s.parent)] -= s.endNs - s.startNs;
        return self;
    }

    /** Write spans and marks as JSON lines after a header line. */
    bool
    write(const std::string &path, const std::string &headerJson) const
    {
        std::ofstream out(path);
        out << headerJson << "\n";
        rfv::MutexLock lk(mu_);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"span\":" << i << ",\"name\":\"" << s.name
                << "\",\"request\":" << s.request
                << ",\"start_ns\":" << s.startNs
                << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
                << "}\n";
        }
        for (const Mark &m : marks_)
            out << "{\"mark\":\"" << m.name << "\",\"request\":"
                << m.request << ",\"at_ns\":" << m.atNs << "}\n";
        return static_cast<bool>(out);
    }

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable rfv::Mutex mu_;
    std::vector<Span> spans_ RFV_GUARDED_BY(mu_);
    std::vector<Mark> marks_ RFV_GUARDED_BY(mu_);
};

/** Closes a span when the enclosing scope ends. */
class ScopedSpan {
  public:
    ScopedSpan(Tracer &t, const char *name, u64 request, i64 parent)
        : t_(t), id_(t.open(name, request, parent))
    {
    }
    ~ScopedSpan() { t_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    i64 id() const { return id_; }

  private:
    Tracer &t_;
    i64 id_;
};

} // namespace servebench

#endif // SERVEBENCH_TRACE_H

#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>

namespace nwbench
{

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

size_t
SpanRecorder::open(const char *name, i64 job)
{
    Span s;
    s.name = name;
    s.job = job;
    s.parent = openStack.empty() ? -1 : static_cast<i64>(openStack.back());
    all.push_back(std::move(s));
    openStack.push_back(all.size() - 1);
    // Read the clock last, so the span's own bookkeeping stays outside.
    all.back().startNs = nowNs();
    return all.size() - 1;
}

void
SpanRecorder::close(size_t index, u64 work, u64 aux)
{
    const u64 end = nowNs();
    Span &s = all[index];
    s.endNs = end;
    s.work = work;
    s.aux = aux;
    if (!openStack.empty() && openStack.back() == index)
        openStack.pop_back();
}

void
SpanRecorder::writeTsv(std::ostream &os, size_t from) const
{
    for (size_t i = from; i < all.size(); ++i) {
        const Span &s = all[i];
        // Parents before @p from belong to the writer's caller; the
        // reader sees those spans as roots.
        const i64 parent = s.parent >= static_cast<i64>(from)
                               ? s.parent - static_cast<i64>(from)
                               : -1;
        os << s.name << '\t' << s.startNs << '\t' << s.endNs << '\t'
           << parent << '\t' << s.job << '\t' << s.work << '\t' << s.aux
           << '\n';
    }
}

void
SpanRecorder::appendTsv(std::istream &is)
{
    const i64 base = static_cast<i64>(all.size());
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream fields(line);
        Span s;
        if (!std::getline(fields, s.name, '\t') ||
            !(fields >> s.startNs >> s.endNs >> s.parent >> s.job >>
              s.work >> s.aux)) {
            continue; // torn line of a child that died mid-write
        }
        if (s.parent >= 0)
            s.parent += base;
        all.push_back(std::move(s));
    }
}

SpanRecorder &
recorder()
{
    static SpanRecorder r;
    return r;
}

ScopedSpan::ScopedSpan(const char *name, i64 job)
    : active(recorder().enabled())
{
    if (active)
        index = recorder().open(name, job);
}

ScopedSpan::~ScopedSpan()
{
    end();
}

void
ScopedSpan::end()
{
    if (active)
        recorder().close(index, workDone, auxDone);
    active = false;
}

std::map<std::string, LayerTotals>
aggregateSpans(const std::vector<Span> &spans, bool jobs)
{
    std::vector<u64> childNs(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            childNs[static_cast<size_t>(s.parent)] += s.durNs();
    }
    std::map<std::string, LayerTotals> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if ((s.job >= 0) != jobs)
            continue;
        LayerTotals &t = out[s.name];
        ++t.calls;
        t.seconds += s.durNs() * 1e-9;
        t.selfSeconds += (s.durNs() - std::min(childNs[i], s.durNs())) *
                         1e-9;
        t.work += s.work;
        t.aux += s.aux;
    }
    return out;
}

double
leafSeconds(const std::vector<Span> &spans)
{
    std::vector<char> hasChild(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent >= 0)
            hasChild[static_cast<size_t>(s.parent)] = 1;
    }
    double seconds = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].job >= 0 && !hasChild[i])
            seconds += spans[i].durNs() * 1e-9;
    }
    return seconds;
}

} // namespace nwbench

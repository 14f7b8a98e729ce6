/**
 * @file
 * Spans recorded around calls into the simulator's public functions.
 *
 * The benchmark times each module from the outside only: a span opens
 * just before a call into a module (Program::load, the OutOfOrderCore
 * constructor, fastForward, ...) and closes when the call returns. Spans
 * live in memory and are written out when the benchmark ends. Forked
 * sweep children write the spans of their one job to a file that the
 * parent merges back (appendTsv).
 *
 * Recording is single-threaded: the benchmark runs at most one job per
 * process at a time, and the main thread waits while a campaign runs.
 */

#ifndef NWBENCH_SPANS_HH
#define NWBENCH_SPANS_HH

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"

namespace nwbench
{

using nwsim::i64;
using nwsim::u64;

/** Nanoseconds on the steady clock (shared by forked children). */
u64 nowNs();

/** One timed call into a simulator module. */
struct Span
{
    std::string name;
    u64 startNs = 0;
    u64 endNs = 0;
    /** Index of the enclosing span in the same recorder, or -1. */
    i64 parent = -1;
    /** Job the call belongs to; -1 for set-up, checks and the probe. */
    i64 job = -1;
    /** Work done by the call (instructions, bytes, ...). */
    u64 work = 0;
    /** A second count where the layer has one (simulated cycles). */
    u64 aux = 0;

    u64 durNs() const { return endNs - startNs; }
};

/** The process-wide span store. */
class SpanRecorder
{
  public:
    void setEnabled(bool on) { enabledFlag = on; }
    bool enabled() const { return enabledFlag; }

    /** Open a span under the innermost open one; returns its index. */
    size_t open(const char *name, i64 job);
    void close(size_t index, u64 work, u64 aux);

    const std::vector<Span> &spans() const { return all; }
    size_t size() const { return all.size(); }

    /** Spans from index @p from on, one tab-separated line each. */
    void writeTsv(std::ostream &os, size_t from = 0) const;
    /** Append writeTsv lines, rebasing their parent indices. */
    void appendTsv(std::istream &is);

  private:
    bool enabledFlag = false;
    std::vector<Span> all;
    std::vector<size_t> openStack;
};

SpanRecorder &recorder();

/** RAII span; does nothing while recording is off. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, i64 job = -1);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void setWork(u64 work, u64 aux = 0)
    {
        workDone = work;
        auxDone = aux;
    }

    /** Close before the end of scope (the call's result lives on). */
    void end();

  private:
    bool active;
    size_t index = 0;
    u64 workDone = 0;
    u64 auxDone = 0;
};

/** Totals of every span with one name. */
struct LayerTotals
{
    u64 calls = 0;
    double seconds = 0.0;
    /** Duration minus the part covered by direct child spans. */
    double selfSeconds = 0.0;
    u64 work = 0;
    u64 aux = 0;

    double meanSeconds() const { return calls ? seconds / calls : 0.0; }
};

/** Per-name totals of the spans whose job is >= 0 (@p jobs) or < 0. */
std::map<std::string, LayerTotals> aggregateSpans(
    const std::vector<Span> &spans, bool jobs);

/**
 * Seconds covered by leaf spans (calls with no span inside them) whose
 * job is >= 0; leaves of one job never overlap.
 */
double leafSeconds(const std::vector<Span> &spans);

} // namespace nwbench

#endif // NWBENCH_SPANS_HH

package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// Counter is a named monotonically-increasing int64. A nil *Counter is
// a valid sink that drops everything, so components can carry counter
// fields unconditionally and only pay when wired to a registry.
//
// Counters and histograms are single-owner plain values, like the
// host and clock that record into them: the host or session that owns
// a registry registers and records from one goroutine at a time, and
// readers on other goroutines (Merge, Snapshot, WriteText) wait for a
// synchronising handover such as the engine's window barrier.
type Counter struct {
	name string
	v    int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Name returns the registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// HistBuckets is the number of fixed log2 buckets in a Histogram.
// Bucket 0 holds durations < 1ns (zero-duration spans); bucket i holds
// durations in [2^(i-1), 2^i) ns; the last bucket absorbs everything
// at or beyond 2^(HistBuckets-2) ns (~2.3 virtual hours), so
// overflowing values clamp rather than drop.
const HistBuckets = 44

// Histogram is a named fixed-bucket virtual-time histogram, a
// single-owner plain value like Counter. Recording is allocation-free:
// one bits.Len64 and four plain updates. A nil *Histogram drops
// everything.
type Histogram struct {
	name    string
	buckets [HistBuckets]int64
	count   int64
	sum     int64 // ns
	max     int64 // ns
}

// bucketOf maps a duration to its bucket index. Negative durations
// (which the vclock forbids anyway) clamp to bucket 0.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d)) // d in [2^(b-1), 2^b)
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += int64(d)
	h.max = max(h.max, int64(d))
}

// Count returns the number of samples; 0 on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum)
}

// Max returns the largest sample seen.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max)
}

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Bucket returns the sample count in bucket i.
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= HistBuckets {
		return 0
	}
	return h.buckets[i]
}

// Name returns the registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Registry holds named counters and histograms. Registration may
// allocate; the registry and the handles it returns are single-owner
// plain values (see Counter). Names are dotted paths
// ("host.procvm.calls", "blk.req_vlat").
type Registry struct {
	ctrs  map[string]*Counter
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  make(map[string]*Counter),
		hists: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. A nil registry returns a nil (drop-everything) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.ctrs[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.ctrs[name] = c
	return c
}

// Histogram returns the histogram registered under name, creating it
// on first use. A nil registry returns a nil histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.hists[name] = h
	return h
}

// merge folds src's samples into h: buckets and count/sum add, max
// takes the larger value.
func (h *Histogram) merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	for i, n := range src.buckets {
		h.buckets[i] += n
	}
	h.count += src.count
	h.sum += src.sum
	h.max = max(h.max, src.max)
}

// Merge folds every counter and histogram of src into r: counters add,
// histogram buckets/counts/sums add and maxima take the larger value.
// Missing names are created in r. Because every fold is commutative
// and associative, merging a set of shard-local registries yields the
// same aggregate no matter how the shards were scheduled — the
// deterministic-aggregation half of the engine's shard-local metrics
// contract (the conventional call order, shard 0..N-1, additionally
// fixes registration order so WriteText output is byte-stable). A nil
// r or src is a no-op. Nothing may record into src while it merges
// (see Counter); the engine merges only after its run barrier.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for _, n := range sortedKeys(src.ctrs) {
		r.Counter(n).Add(src.ctrs[n].v)
	}
	for _, n := range sortedKeys(src.hists) {
		r.Histogram(n).merge(src.hists[n])
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot returns every counter value plus, for each histogram, its
// derived scalars (<name>.count, <name>.sum_ns, <name>.max_ns). The
// map is freshly allocated; keys are stable across runs.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64, len(r.ctrs)+3*len(r.hists))
	for name, c := range r.ctrs {
		out[name] = c.Value()
	}
	for name, h := range r.hists {
		out[name+".count"] = h.Count()
		out[name+".sum_ns"] = int64(h.Sum())
		out[name+".max_ns"] = int64(h.Max())
	}
	return out
}

// histRange formats the virtual-time range a bucket covers.
func histRange(i int) string {
	if i == 0 {
		return "0"
	}
	lo := time.Duration(1) << (i - 1)
	if i == HistBuckets-1 {
		return fmt.Sprintf(">=%v", lo)
	}
	return fmt.Sprintf("[%v,%v)", lo, time.Duration(1)<<i)
}

// WriteText appends a deterministic plain-text dump of the registry:
// counters sorted by name, then histograms sorted by name with only
// their non-empty buckets.
func (r *Registry) WriteText(sb *strings.Builder) {
	if r == nil {
		return
	}
	for _, n := range sortedKeys(r.ctrs) {
		fmt.Fprintf(sb, "%-32s %d\n", n, r.ctrs[n].v)
	}
	for _, n := range sortedKeys(r.hists) {
		h := r.hists[n]
		fmt.Fprintf(sb, "%-32s count=%d sum=%v mean=%v max=%v\n",
			n, h.Count(), h.Sum(), h.Mean(), h.Max())
		for i := 0; i < HistBuckets; i++ {
			if c := h.Bucket(i); c != 0 {
				fmt.Fprintf(sb, "  %-22s %d\n", histRange(i), c)
			}
		}
	}
}

// Text returns WriteText's output as a string.
func (r *Registry) Text() string {
	var sb strings.Builder
	r.WriteText(&sb)
	return sb.String()
}

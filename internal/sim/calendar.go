package sim

import "math"

// calendarQueue is the simulator's default scheduler. It runs in one of
// two modes, chosen by the number of pending events:
//
//   - Small mode (at most calSmallMax pending): one array sorted
//     descending by (at, seq), minimum at the tail. A push is a tail
//     insertion, a pop takes the tail. The closed-window models the
//     simulator exists for keep a handful of events pending (Canada-4
//     never exceeds 17), and at that size a sorted array beats any
//     bucketing: its push and pop inline into the run loop.
//   - Large mode: a calendar queue (Brown 1988). Events hash into
//     time-width buckets like days into a wall calendar, so push and pop
//     are amortised O(1) instead of the array's O(n) insertion or the
//     heap's O(log n). The push that would take small mode past
//     calSmallMax spills the array into the bucket directory; a pop that
//     leaves fewer than calCollapse events collapses it back.
//
// Ordering contract: identical to heapQueue — strictly increasing
// (at, seq), FIFO among simultaneous events — in either mode. In small
// mode it holds because the array is kept sorted. In large mode it holds
// by construction: an event's virtual bucket vb = floor(at/width) is
// monotone in at, all events sharing a vb land in the same physical
// bucket (vb & mask) where they are kept sorted by (at, seq) descending
// (minimum at the tail, a pop away), and the dequeue scan visits virtual
// buckets in increasing order. Equal timestamps always share a vb, so
// seq ties are broken inside one sorted bucket, never across buckets.
// (An unsorted-bucket variant with a min-scan at pop was tried and
// measured slower: the pop scan pays the comparator per element per pop,
// while the sorted insert shifts on average half a bucket per push.)
//
// The dequeue scan maintains the invariant that no queued event's vb is
// behind it. Pops preserve it (they serve the minimum), and insertion
// restores it by pulling the scan back whenever a push lands behind —
// rare in simulator use, where pushes are at or after the clock, but
// possible after a width re-estimate and routine in adversarial tests.
//
// The hot callers (state.qPush, state.qPushMsg and the calendar run loop)
// make the mode test themselves and call pushSmall/popSmall, which
// inline, or pushLarge/popLarge, which do not. pushMsg and pop are the
// same dispatch behind the eventQueue interface.
type calendarQueue struct {
	seq  uint64
	size int
	// smallLim is calSmallMax in small mode and 0 in large mode, so
	// "size < smallLim" is the whole test for the small-mode push fast
	// path: it fails both in large mode and when the array is full.
	smallLim int
	// small holds the events in small mode, sorted by (at, seq)
	// descending in small[:size]. Unused in large mode.
	small [calSmallMax]event

	// The bucket directory, used in large mode only; every bucket is
	// empty in small mode. It is allocated at the first spill.
	buckets [][]event // each sorted by (at, seq) descending; minimum at the tail
	// tvb caches each bucket's tail (minimum) virtual bucket (tvbEmpty
	// when the bucket is empty), so the dequeue scan compares integers
	// instead of recomputing vbOf per probe. Distinct buckets always cache
	// distinct values: a virtual bucket maps to exactly one physical
	// bucket.
	tvb   []int64
	mask  int     // len(buckets)-1; bucket count is a power of two
	width float64 // bucket time width
	inv   float64 // 1/width
	cur   int     // physical bucket the dequeue scan stands on
	curVB int64   // virtual bucket the scan is serving
	// scratch backs the width estimate's sampling between resizes.
	scratch []float64
	// spills and collapses count mode switches. Nothing reads them but
	// the tests, which use them to prove a workload crosses the
	// thresholds; they are bumped only on the rare switch paths.
	spills, collapses int
}

const (
	// calSmallMax is the most events small mode holds. A push shifts
	// every pending event due no later than itself, so small mode's cost
	// grows linearly with the population; past a few dozen events the
	// directory's amortised O(1) push wins.
	calSmallMax = 32
	// calCollapse: a large-mode pop that leaves fewer events than this
	// collapses the directory back into the small array. The gap to
	// calSmallMax is the hysteresis that keeps a population hovering
	// near either threshold from paying a spill or collapse per event.
	calCollapse = 8
	// calMinBuckets is the directory size the first spill allocates and
	// the floor its shrink resizes stop at: calSmallMax+1 events then
	// fill the buckets about one each, as after any grow resize.
	calMinBuckets = calSmallMax
)

// arenaSlot is the per-bucket capacity carved from the shared arena.
const arenaSlot = 8

// tvbEmpty marks an empty bucket in the tvb cache; it compares greater
// than every real virtual bucket.
const tvbEmpty = int64(math.MaxInt64)

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{smallLim: calSmallMax, width: 1, inv: 1}
}

func (q *calendarQueue) grow(nbuckets int) {
	q.buckets = make([][]event, nbuckets)
	// One contiguous arena backs every bucket (arenaSlot events each), so
	// the push/pop hot paths work in one small L1-resident block instead
	// of nbuckets scattered heap allocations. A bucket that outgrows its
	// slot silently regrows off-arena via append — rare (the resize rule
	// keeps mean occupancy at or below two) and only a locality loss,
	// never a correctness one.
	arena := make([]event, nbuckets*arenaSlot)
	for i := range q.buckets {
		q.buckets[i] = arena[i*arenaSlot : i*arenaSlot : (i+1)*arenaSlot]
	}
	q.tvb = make([]int64, nbuckets)
	for i := range q.tvb {
		q.tvb[i] = tvbEmpty
	}
	q.mask = nbuckets - 1
}

// vbOf maps a timestamp to its virtual bucket. Far-future outliers that
// would overflow int64 are clamped onto one shared virtual bucket; since
// the clamp is monotone and shared-vb events land in one physical
// bucket, ordering is preserved. (Negative timestamps would break the
// floor here; simulated time is never negative.)
func (q *calendarQueue) vbOf(at float64) int64 {
	v := at * q.inv
	if v >= float64(int64(1)<<62) {
		return int64(1) << 62
	}
	return int64(v)
}

func (q *calendarQueue) push(at float64, kind eventKind, class, channel int) {
	q.pushMsg(at, kind, class, channel, msgNone)
}

func (q *calendarQueue) pushMsg(at float64, kind eventKind, class, channel int, msg int32) {
	if q.size < q.smallLim {
		q.pushSmall(at, kind, class, channel, msg)
		return
	}
	q.pushLarge(at, kind, class, channel, msg)
}

// pushSmall is the small-mode push; the caller has checked
// size < smallLim. A fresh push always carries the largest seq in the
// queue, so the descending (at, seq) comparison collapses to at alone:
// every queued event with an equal timestamp is older and sorts ahead of
// (above) this one. Kept small enough to inline into the callers.
func (q *calendarQueue) pushSmall(at float64, kind eventKind, class, channel int, msg int32) {
	q.seq++
	i := q.size
	q.size++
	for i > 0 && q.small[i-1].at <= at {
		q.small[i] = q.small[i-1]
		i--
	}
	// Field stores, not a composite literal: the literal is built in a
	// stack temporary by narrow stores and copied out with 16-byte loads
	// that the store buffer cannot forward, a stall that cost more than
	// the whole insertion loop.
	e := &q.small[i]
	e.at, e.seq = at, q.seq
	e.channel, e.msg, e.class, e.kind = int32(channel), msg, int16(class), kind
}

// pushLarge is every push the small-mode fast path does not take: it
// spills a full small array into the directory first, then inserts
// into the directory.
func (q *calendarQueue) pushLarge(at float64, kind eventKind, class, channel int, msg int32) {
	if q.smallLim != 0 {
		q.spill()
	}
	// This is insert() unrolled for the live push, with the same at-only
	// comparison and field stores as pushSmall.
	q.seq++
	vb := q.vbOf(at)
	if vb < q.curVB {
		q.curVB = vb
		q.cur = int(vb) & q.mask
	}
	b := int(vb) & q.mask
	s := append(q.buckets[b], event{})
	i := len(s) - 1
	for i > 0 && s[i-1].at <= at {
		s[i] = s[i-1]
		i--
	}
	e := &s[i]
	e.at, e.seq = at, q.seq
	e.channel, e.msg, e.class, e.kind = int32(channel), msg, int16(class), kind
	q.buckets[b] = s
	if i == len(s)-1 {
		q.tvb[b] = vb // e is the bucket's new minimum
	}
	q.size++
	if q.size > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// spill moves the full small array into the bucket directory and
// switches to large mode. The first spill allocates the directory and
// estimates the width from the array's times; every later one reuses
// the directory as it is (empty in small mode), at its size and width.
// So a population that crosses the thresholds repeatedly does not
// allocate per crossing, a reused runner finds the directory with every
// bucket's grown capacity, and the width stays the one the last resize
// estimated from a settled population (the 32 events at a spill can be
// a start-up transient) until the next resize re-estimates it.
func (q *calendarQueue) spill() {
	if q.buckets == nil {
		ts := q.scratch[:0]
		for i := 0; i < q.size; i++ {
			ts = append(ts, q.small[i].at)
		}
		q.scratch = ts
		q.setWidth(ts)
		q.grow(calMinBuckets)
	}
	n := q.size
	q.size = 0
	q.cur, q.curVB = 0, 0
	// Descending order lands each event at its bucket's tail: no shifts.
	for i := 0; i < n; i++ {
		q.insert(q.small[i])
	}
	q.anchor()
	q.smallLim = 0
	q.spills++
}

// collapse moves the directory's few remaining events back into the
// small array and switches to small mode. The events carry historic seq
// values, so the sort uses the full comparator.
func (q *calendarQueue) collapse() {
	n := 0
	for b := range q.buckets {
		for _, e := range q.buckets[b] {
			q.small[n] = e
			n++
		}
		q.buckets[b] = q.buckets[b][:0]
		q.tvb[b] = tvbEmpty
	}
	for i := 1; i < n; i++ {
		e := q.small[i]
		j := i
		for j > 0 && eventLess(&q.small[j-1], &e) {
			q.small[j] = q.small[j-1]
			j--
		}
		q.small[j] = e
	}
	q.smallLim = calSmallMax
	q.collapses++
}

// insert places e into its bucket, keeping the bucket sorted descending
// by (at, seq) so the bucket minimum is a pop-from-the-back away. Used by
// resize, where reinserted events carry historic seq values and need the
// full comparison; live pushes go through the unrolled copy in pushLarge.
func (q *calendarQueue) insert(e event) {
	vb := q.vbOf(e.at)
	if vb < q.curVB {
		// The event lands behind the dequeue scan (possible after a
		// width change, or under push orders the simulator never
		// produces but the adversarial tests do). Pull the scan back so
		// the invariant curVB <= vb(every queued event) holds again.
		q.curVB = vb
		q.cur = int(vb) & q.mask
	}
	b := int(vb) & q.mask
	s := append(q.buckets[b], e)
	i := len(s) - 1
	for i > 0 && eventLess(&s[i-1], &e) {
		s[i] = s[i-1]
		i--
	}
	s[i] = e
	q.buckets[b] = s
	if i == len(s)-1 {
		q.tvb[b] = vb // e is the bucket's new minimum
	}
	q.size++
}

func (q *calendarQueue) empty() bool { return q.size == 0 }

func (q *calendarQueue) pop() event {
	if q.smallLim != 0 {
		return q.popSmall()
	}
	return q.popLarge()
}

// popSmall is the small-mode pop: the minimum sits at the tail.
func (q *calendarQueue) popSmall() event {
	q.size--
	return q.small[q.size]
}

// popLarge is the large-mode pop.
func (q *calendarQueue) popLarge() event {
	// Fast path: walk physical buckets from the scan position until one's
	// cached tail virtual bucket matches the virtual bucket the scan is
	// serving. That bucket's tail is the queue minimum: every queued
	// event has vb >= curVB (the scan invariant), all vb == curVB events
	// share this physical bucket, and vb > curVB implies a strictly later
	// timestamp.
	n := len(q.buckets)
	b := -1
	for i := 0; i < n; i++ {
		if q.tvb[q.cur] == q.curVB {
			b = q.cur
			break
		}
		q.cur++
		if q.cur == n {
			q.cur = 0
		}
		q.curVB++
	}
	if b < 0 {
		// Slow path: a full lap found nothing due this calendar year (the
		// next event is far in the future). Jump the scan straight to the
		// global minimum: the bucket with the smallest cached virtual
		// bucket holds it.
		best := 0
		for i := 1; i < n; i++ {
			if q.tvb[i] < q.tvb[best] {
				best = i
			}
		}
		q.cur = best
		q.curVB = q.tvb[best]
		b = best
	}
	// The bucket minimum sits at the tail; the new tail refreshes the
	// bucket's tvb entry after the removal.
	s := q.buckets[b]
	m := len(s) - 1
	e := s[m]
	q.buckets[b] = s[:m]
	if m > 0 {
		q.tvb[b] = q.vbOf(s[m-1].at)
	} else {
		q.tvb[b] = tvbEmpty
	}
	q.size--
	if q.size < calCollapse {
		q.collapse()
	} else if n > calMinBuckets && q.size < n/4 {
		q.resize(n / 2)
	}
	return e
}

// resize rebuilds the bucket directory at nbuckets buckets with a width
// re-estimated from the current population, then re-anchors the scan at
// the queue minimum. Everything here is a pure function of the queue
// content, so resizes are deterministic — though they only affect
// performance, never pop order, which the ordering contract pins down
// regardless of bucketing.
func (q *calendarQueue) resize(nbuckets int) {
	old := q.buckets
	ts := q.scratch[:0]
	for _, b := range old {
		for i := 0; i < len(b) && len(ts) < 64; i++ {
			ts = append(ts, b[i].at)
		}
	}
	q.scratch = ts
	q.setWidth(ts)
	q.grow(nbuckets)
	q.size = 0
	q.cur, q.curVB = 0, 0
	for _, b := range old {
		for i := range b {
			q.insert(b[i])
		}
	}
	q.anchor()
}

// anchor points the scan at the bucket holding the global minimum.
func (q *calendarQueue) anchor() {
	best := 0
	for i := 1; i < len(q.tvb); i++ {
		if q.tvb[i] < q.tvb[best] {
			best = i
		}
	}
	if q.tvb[best] != tvbEmpty {
		q.cur = best
		q.curVB = q.tvb[best]
	} else {
		q.cur, q.curVB = 0, 0
	}
}

// setWidth re-estimates the bucket width from a sample of up to 64 event
// times, which it sorts in place: three times the median positive gap
// between time-sorted neighbours, so a bucket holds a handful of events
// and far-future outliers (which would wreck a mean-based estimate)
// cannot inflate the width. A sample with no positive gap keeps the
// current width.
func (q *calendarQueue) setWidth(ts []float64) {
	// Insertion sort: the sample is tiny and this keeps resize free of
	// sort.Float64s' interface machinery.
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	// Collapse the sorted times into their positive gaps in place: the
	// write index trails the read index, so no unread element is
	// clobbered.
	gaps := 0
	for i := 1; i < len(ts); i++ {
		if ts[i] > ts[i-1] {
			ts[gaps] = ts[i] - ts[i-1]
			gaps++
		}
	}
	if gaps == 0 {
		return // all sampled events simultaneous: keep the width
	}
	g := ts[:gaps]
	for i := 1; i < len(g); i++ {
		for j := i; j > 0 && g[j] < g[j-1]; j-- {
			g[j], g[j-1] = g[j-1], g[j]
		}
	}
	if w := 3 * g[gaps/2]; w >= 1e-300 {
		q.width = w
		q.inv = 1 / w
	}
}

// reset discards every event and returns to small mode. The directory
// keeps its allocation for the next spill.
func (q *calendarQueue) reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
		q.tvb[i] = tvbEmpty
	}
	q.seq = 0
	q.size = 0
	q.smallLim = calSmallMax
	q.cur = 0
	q.curVB = 0
}

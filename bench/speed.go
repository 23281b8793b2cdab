package main

// The box's speed, read beside everything that is timed.
//
// The reference box is a small VM on a shared host. Its neighbours take
// cache and memory bandwidth away for seconds to minutes at a time, and
// every workload here then runs a fifth to a third slower with the same
// binary, while pure arithmetic hardly moves. No amount of repetition
// inside a run averages that out, because a run fits inside one such
// spell. So the benchmark measures the memory system itself, right
// before and right after each timed section, with a kernel no change to
// the repository can reach — dependent loads through three arrays sized
// for the second-level cache, the shared last-level cache and main
// memory — and states every time-based metric in reference seconds:
// measured time divided by how much slower than nominal those loads ran
// around it.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// refKernel is one pointer chase: entries of 4 bytes, steps dependent
// loads per timed slice, and the time one load takes on the reference
// box when its host is quiet.
type refKernel struct {
	entries   int
	steps     int
	nominalNs float64
}

// refKernels are the three working sets: 4 MB, 16 MB, 128 MB.
var refKernels = [...]refKernel{
	{1 << 20, 20000, 62},
	{1 << 22, 5000, 195},
	{1 << 25, 3000, 285},
}

// refExponent is how much more than the kernels the workloads feel a
// busy host. Over four hours of runs on the reference box — quiet spells
// and busy ones, all five workloads — the time a repetition took rose
// with the kernels' geometric mean to the power 0.8 to 1.6; 1.25 left
// the smallest spread between runs (README, Steadiness).
const refExponent = 1.25

// refSlices is how many slices of each kernel one reading times; the
// reading uses each kernel's median slice, so a slice that shared its
// CPU with a garbage collector or a late flusher is not the one counted.
// (A variable so the smoke tests, whose few milliseconds of timing are
// not worth 25 ms readings, take one.)
var refSlices = 9

// refFresh is how long a reading stays good for: a timed section that
// begins where another ended shares the reading between them.
const refFresh = 2 * time.Millisecond

// boxRef holds the kernels' arrays and the readings taken so far.
type boxRef struct {
	perm [len(refKernels)][]uint32
	// at is where each goroutine's walk through each array stands.
	at [len(refKernels)][maxProcs]uint32

	last   float64
	lastAt time.Time
	seen   []float64
	// loadNs is what one load took, per kernel, in every reading so far.
	loadNs [len(refKernels)][]float64
	// applied is what the last window divided its times by.
	applied float64
	// asTimed makes every reading 1: the traced pass prices layers with
	// microbenchmarks too short to carry readings of their own, and the
	// live repetition they are reconciled against must be in their unit.
	asTimed bool
}

var box boxRef

// init maps the arrays, once per process, outside the Go heap, so that
// 148 MB of reference data neither moves the collector's pacing nor
// shows in any heap reading. Each array is one cycle through all its
// entries: x → a·x + c modulo a power of two has full period when c is
// odd and a ≡ 1 mod 4, and its successive values land on unrelated
// cache lines and pages.
func (b *boxRef) init() error {
	if b.perm[0] != nil {
		return nil
	}
	for k, kern := range refKernels {
		mem, err := syscall.Mmap(-1, 0, kern.entries*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return fmt.Errorf("mapping the speed reference: %w", err)
		}
		p := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), kern.entries)
		mask := uint32(kern.entries - 1)
		for i := range p {
			p[i] = (uint32(i)*2654435761 + 12345) & mask
		}
		b.perm[k] = p
		for g := range b.at[k] {
			b.at[k][g] = uint32(g * kern.entries / maxProcs)
		}
	}
	return nil
}

// slowness reads how many times slower than nominal the box's memory
// system runs right now: on every processor the run may use, at once,
// the median slice of each kernel against its nominal time, combined as
// a geometric mean over the kernels (raised to refExponent) and an
// arithmetic one over the processors. A reading costs about 25 ms. In a
// traced run it is 1: seconds as they passed.
func slowness() float64 {
	b := &box
	if b.asTimed {
		return 1
	}
	if !b.lastAt.IsZero() && time.Since(b.lastAt) < refFresh {
		return b.last
	}
	procs := min(runtime.GOMAXPROCS(0), maxProcs)
	out := make([]float64, procs)
	perLoad := make([][len(refKernels)]float64, procs)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ns [len(refKernels)][]float64
			for s := 0; s < refSlices; s++ {
				for k, kern := range refKernels {
					perm, j := b.perm[k], b.at[k][g]
					start := time.Now()
					for i := 0; i < kern.steps; i++ {
						j = perm[j]
					}
					ns[k] = append(ns[k], float64(time.Since(start).Nanoseconds())/float64(kern.steps))
					b.at[k][g] = j
				}
			}
			logSum := 0.0
			for k, kern := range refKernels {
				perLoad[g][k] = median(ns[k])
				logSum += math.Log(perLoad[g][k] / kern.nominalNs)
			}
			out[g] = math.Exp(refExponent * logSum / float64(len(refKernels)))
		}(g)
	}
	wg.Wait()
	sum := 0.0
	for g, v := range out {
		sum += v
		for k := range refKernels {
			b.loadNs[k] = append(b.loadNs[k], perLoad[g][k])
		}
	}
	b.last, b.lastAt = sum/float64(procs), time.Now()
	b.seen = append(b.seen, b.last)
	return b.last
}

// reportBox records the median of the readings taken so far — what to
// multiply the run's reference seconds by to get roughly the seconds it
// took — and what one load took in each kernel.
func reportBox(res *result) {
	res.Info["box_slowness"] = median(append([]float64(nil), box.seen...))
	for k, name := range [...]string{"box_load_ns_4MB", "box_load_ns_16MB", "box_load_ns_128MB"} {
		res.Info[name] = median(append([]float64(nil), box.loadNs[k]...))
	}
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies what a result was measured on and with. Results
// are comparable only when every field matches.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workers    int    `json:"workers"`
	Conns      int    `json:"conns"`
	Seed       uint64 `json:"seed"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s workers=%d conns=%d seed=%d",
		f.CPU, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.Workers, f.Conns, f.Seed)
}

func hostFingerprint(seed uint64, workers, conns int) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workers:    workers,
		Conns:      conns,
		Seed:       seed,
	}
}

// cpuModel reads the processor model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// usage is a snapshot of process resource counters.
type usage struct {
	cpu        time.Duration // user + system CPU time
	allocBytes uint64        // cumulative heap allocation
	gcCycles   uint64
	gcPause    time.Duration
	gcCPU      float64 // cumulative GC CPU seconds
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	metrics.Read(rtSamples)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: rtSamples[0].Value.Uint64(),
		gcCycles:   rtSamples[1].Value.Uint64(),
		gcPause:    gs.PauseTotal,
		gcCPU:      rtSamples[2].Value.Float64(),
	}
}

// sub returns the activity between two snapshots.
func (u usage) sub(o usage) usage {
	return usage{
		cpu:        u.cpu - o.cpu,
		allocBytes: u.allocBytes - o.allocBytes,
		gcCycles:   u.gcCycles - o.gcCycles,
		gcPause:    u.gcPause - o.gcPause,
		gcCPU:      u.gcCPU - o.gcCPU,
	}
}

func (u *usage) add(o usage) {
	u.cpu += o.cpu
	u.allocBytes += o.allocBytes
	u.gcCycles += o.gcCycles
	u.gcPause += o.gcPause
	u.gcCPU += o.gcCPU
}

// rssSampler tracks the peak resident set size while a pass runs,
// sampling /proc/self/statm every rssPeriod.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

const rssPeriod = 2 * time.Millisecond

// startRSS begins sampling; end stops it.
func startRSS() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	page := float64(os.Getpagesize())
	buf := make([]byte, 128)
	read := func() float64 {
		n, err := f.ReadAt(buf, 0)
		if n == 0 && err != nil {
			return 0
		}
		fields := strings.Fields(string(buf[:n]))
		if len(fields) < 2 {
			return 0
		}
		pages, _ := strconv.ParseFloat(fields[1], 64)
		return pages * page / (1 << 20)
	}
	go func() {
		defer f.Close()
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		peak := read()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, read())
				return
			case <-t.C:
				peak = max(peak, read())
			}
		}
	}()
	return s, nil
}

// end stops the sampler and returns the peak it saw, in MiB.
func (s *rssSampler) end() float64 {
	close(s.stop)
	return <-s.done
}

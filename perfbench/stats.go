package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// quantile returns the p-quantile of xs by nearest rank (0 when xs is
// empty). It sorts xs in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memMark is a reading of the runtime's cumulative allocation and GC
// counters.
type memMark struct {
	alloc, pauseNs uint64
	gcs            uint32
}

func readMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{alloc: m.TotalAlloc, pauseNs: m.PauseTotalNs, gcs: m.NumGC}
}

// sub is the change from an earlier reading.
func (m memMark) sub(from memMark) memMark {
	return memMark{alloc: m.alloc - from.alloc, pauseNs: m.pauseNs - from.pauseNs, gcs: m.gcs - from.gcs}
}

func (m memMark) add(o memMark) memMark {
	return memMark{alloc: m.alloc + o.alloc, pauseNs: m.pauseNs + o.pauseNs, gcs: m.gcs + o.gcs}
}

// liveHeap forces two collections, the second freeing what the first
// moved into sync.Pool victim caches, and returns the bytes still in
// use.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// settledHeap is liveHeap once two readings a millisecond apart agree:
// the goroutines of just-closed connections free their buffers as they
// exit, after the close returned.
func settledHeap() uint64 {
	h := liveHeap()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		next := liveHeap()
		if next == h {
			break
		}
		h = next
	}
	return h
}

// conditions records what a result depends on besides the workload.
func conditions(cfg config) map[string]any {
	return map[string]any{
		"workload":      cfg.Workload,
		"seed":          cfg.Seed,
		"seconds":       cfg.Seconds,
		"trace":         cfg.Trace,
		"default_seed":  defaultSeed,
		"heldout_seed":  heldoutSeed,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit(),
		"source_sha256": sourceDigest(),
		"max_rss_mb":    maxRSSMB(),
	}
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1e3 // Linux reports kilobytes
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit when the run happens in a git
// work tree; an exported checkout has none (source_sha256 still names
// the code).
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod (the
// benchmark's own directory and dot-directories excluded), so every
// result names the code it measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && path != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsName names the filesystem holding dir, from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x2fc12fc1: "zfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func quantile[T int32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[hi])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nsQuantileUS is quantile over nanosecond samples, in microseconds.
func nsQuantileUS(xs []int32, q float64) float64 { return quantile(xs, q) / 1e3 }

// heapAllocs is the process's cumulative heap object allocation count.
// Unlike runtime.ReadMemStats it does not stop the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// digest accumulates a unit's virtual results into a hash.
type digest struct{ h [sha256.Size]byte }

func newDigest(label string) *digest {
	d := &digest{}
	d.h = sha256.Sum256([]byte(label))
	return d
}

func (d *digest) mix(b []byte) {
	h := sha256.New()
	h.Write(d.h[:])
	h.Write(b)
	copy(d.h[:], h.Sum(nil))
}

func (d *digest) str(s string) { d.mix([]byte(s)) }

func (d *digest) i64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.mix(b[:])
}

func (d *digest) f64(v float64) { d.i64(int64(math.Float64bits(v))) }

func (d *digest) hex() string { return hex.EncodeToString(d.h[:8]) }

// combine folds unit digests, in order, into one pass digest.
func combine(units []string) string {
	d := newDigest("pass")
	for _, u := range units {
		d.str(u)
	}
	return d.hex()
}

// sourceDigest hashes the Go sources and module files under the working
// directory (the checkout root), so a result names the code it measured
// even where the checkout is not a git repository.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() {
			if path != "." && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && e.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path)
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)[:6])
}

// calibRefMS is calibMS on an idle core of a 2-CPU x86-64 VM (go1.24),
// the reference host: host times are reported as if the host ran at
// that speed.
const calibRefMS = 3.0

// setHostTimes sets wall_s and setup_s from raw host seconds, scaled by
// calibRefMS over the run's median probe time. On a shared 2-CPU VM the
// host speed drifted by 20-40% over tens of minutes as other work on
// the machine came and went; the probe tracked that drift (correlation
// 0.8-0.98 with the raw times), and scaling halved the run-to-run
// spread. The raw figures and the probe are printed beside them.
func setHostTimes(rep *report, wallRaw, setupRaw float64, calib []float64) {
	c := median(calib)
	rep.set("wall_s", wallRaw*calibRefMS/c, "s")
	rep.set("setup_s", setupRaw*calibRefMS/c, "s")
	rep.addExtra("wall_raw_s", wallRaw, "s")
	rep.addExtra("setup_raw_s", setupRaw, "s")
	rep.addExtra("host.calib_ms", c, "ms")
}

// calibBuf is the input of the host-speed probe.
var calibBuf = make([]byte, 64<<10)

// calibMS times a fixed compute kernel (60 SHA-256 passes over 64 KiB,
// about 3 ms on an idle core). Taken between units, its median over a
// run records how fast the host was while the run measured.
func calibMS() float64 {
	t := time.Now()
	for i := 0; i < 60; i++ {
		s := sha256.Sum256(calibBuf)
		calibBuf[0] = s[0]
	}
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// fixtures are the files the workloads serve, built with the shipped
// binaries and timed as fixture.* (never part of setup_s).
type fixtures struct {
	temp5dDB, temp5dLayout, grid2dDB string
	seconds                          map[string]float64
}

const temp5dRecords = 200_000

// keepFixtureSets bounds the fixture cache: ten seeds' worth, 3 GB.
const keepFixtureSets = 10

// Fixtures are kept between invocations in .bench_build/fixtures/, one
// directory per (tool binaries, seed). The driver runs 114 invocations of one
// workload each, most of them on a seed some earlier invocation already built
// for; rebuilding temp5d and its .wvls every time is 5–19 s of each ~25 s run
// and would leave no margin under the driver's wall-clock cap. A hit changes
// no gated metric: fixture time is not in setup_s, and the fixture.* rows
// report the time the cached file took to build. The directory name carries a
// hash of wvq, wvload, wvlayout and this program (which writes grid2d's CSV),
// so fixtures never outlive the code that wrote them.
func (e *env) fixtureDir() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, path := range []string{e.bin("wvq"), e.bin("wvload"), e.bin("wvlayout"), self} {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		_ = f.Close() // read-only
		if err != nil {
			return "", err
		}
	}
	tools := fmt.Sprintf("%x", h.Sum(nil))[:12]
	root := filepath.Join(e.root, ".bench_build", "fixtures")
	dir := filepath.Join(root, fmt.Sprintf("%s-seed%d", tools, e.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	now := time.Now()
	_ = os.Chtimes(dir, now, now) // most recently used; eviction order only
	return dir, evictFixtures(root, tools)
}

// evictFixtures removes sets written by other tool binaries and, beyond
// keepFixtureSets, the least recently used.
func evictFixtures(root, tools string) error {
	entries, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	type set struct {
		path string
		used time.Time
	}
	var live []set
	for _, en := range entries {
		path := filepath.Join(root, en.Name())
		info, err := en.Info()
		if err != nil || !strings.HasPrefix(en.Name(), tools+"-") {
			if err := os.RemoveAll(path); err != nil {
				return err
			}
			continue
		}
		live = append(live, set{path, info.ModTime()})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].used.After(live[j].used) })
	for _, s := range live[min(len(live), keepFixtureSets):] {
		if err := os.RemoveAll(s.path); err != nil {
			return err
		}
	}
	return nil
}

// cached returns dir/name, building it with build (which must write the
// path it is given) unless a finished copy is there, and the seconds the
// build took. The file appears under its name only once complete, and its
// build time is kept beside it.
func cached(dir, name string, build func(tmp string) (time.Duration, error)) (string, float64, error) {
	path := filepath.Join(dir, name)
	if data, err := os.ReadFile(path + ".seconds"); err == nil {
		if secs, perr := strconv.ParseFloat(strings.TrimSpace(string(data)), 64); perr == nil {
			if _, serr := os.Stat(path); serr == nil {
				return path, secs, nil
			}
		}
	}
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	defer os.Remove(tmp) // gone already after a successful rename
	took, err := build(tmp)
	if err != nil {
		return "", 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", 0, err
	}
	secs := took.Seconds()
	return path, secs, os.WriteFile(path+".seconds", []byte(strconv.FormatFloat(secs, 'g', -1, 64)+"\n"), 0o644)
}

// buildFixtures makes (or finds) what the given workloads need.
func (e *env) buildFixtures(ctx context.Context, ws []workload) (*fixtures, error) {
	dir, err := e.fixtureDir()
	if err != nil {
		return nil, err
	}
	fx := &fixtures{seconds: map[string]float64{}}
	need := map[string]bool{}
	for _, w := range ws {
		need[w.fixture] = true
		need["layout"] = need["layout"] || w.layout
	}
	if need["temp5d"] {
		fx.temp5dDB, fx.seconds["fixture.create_temp5d_s"], err = cached(dir, "temp5d.wvdb", func(tmp string) (time.Duration, error) {
			return runTool(ctx, e.tmpDir, e.bin("wvq"), "-create", "-db", tmp,
				"-records", fmt.Sprint(temp5dRecords), "-seed", fmt.Sprint(e.seed))
		})
		if err != nil {
			return nil, err
		}
	}
	if need["layout"] {
		fx.temp5dLayout, fx.seconds["fixture.wvlayout_s"], err = cached(dir, "temp5d.wvls", func(tmp string) (time.Duration, error) {
			return runTool(ctx, e.tmpDir, e.bin("wvlayout"), "-in", fx.temp5dDB, "-out", tmp)
		})
		if err != nil {
			return nil, err
		}
	}
	if need["grid2d"] {
		csv, gen, err := cached(dir, "grid2d.csv", func(tmp string) (time.Duration, error) {
			start := time.Now()
			err := os.WriteFile(tmp, grid2dCSV(e.seed, grid2dRows), 0o644)
			return time.Since(start), err
		})
		if err != nil {
			return nil, err
		}
		var load float64
		fx.grid2dDB, load, err = cached(dir, "grid2d.wvdb", func(tmp string) (time.Duration, error) {
			return runTool(ctx, e.tmpDir, e.bin("wvload"), "-in", csv, "-out", tmp,
				"-cols", "x:1024[0..1024],y:1024[0..1024]", "-filter", "Db4")
		})
		if err != nil {
			return nil, err
		}
		fx.seconds["ingest.wvload_s"] = load
		fx.seconds["fixture.create_grid2d_s"] = gen + load
	}
	return fx, nil
}

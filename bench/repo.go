package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"neesgrid/internal/daq"
	"neesgrid/internal/gridftp"
	"neesgrid/internal/nfms"
	"neesgrid/internal/repo"
)

const (
	repoOwner   = "/O=NEES/CN=repo"
	ingestOwner = "/O=NEES/CN=uiuc"
	blockScans  = 50 // scans per spool block
	bulkBytes   = 16 << 20
)

// stopwatch sums the wall and CPU time of the calls a repeat times, leaving
// the benchmark's own verification between them out.
type stopwatch struct{ wall, cpu float64 }

func (w *stopwatch) time(fn func() error) (float64, error) {
	cpu, start := cpuSeconds(), time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	w.wall += d
	w.cpu += cpuSeconds() - cpu
	return d, err
}

// archive is a repository with one GridFTP replica server on loopback and
// a scratch directory; files stay in the page cache.
type archive struct {
	dir  string
	repo *repo.Repository
	ftp  *gridftp.Server
	addr string
}

func newArchive(s *settings, prefix string) (*archive, error) {
	a := &archive{}
	var err error
	if a.dir, err = os.MkdirTemp(s.tmp, prefix); err != nil {
		return nil, err
	}
	if a.repo, err = repo.New(repoOwner); err == nil {
		a.ftp, err = gridftp.NewServer(filepath.Join(a.dir, "store"))
	}
	if err == nil {
		a.addr, err = a.ftp.Start("127.0.0.1:0")
	}
	if err != nil {
		a.close()
		return nil, err
	}
	return a, nil
}

func (a *archive) replica(path string) nfms.Replica {
	return nfms.Replica{Transport: "gridftp", Addr: a.addr, Path: path}
}

func (a *archive) close() {
	if a.ftp != nil {
		_ = a.ftp.Close()
	}
	_ = os.RemoveAll(a.dir)
}

// ingestRun is the incremental-archival path: DAQ → spool → Ingestor →
// GridFTP replica + catalogue, then every block fetched back and compared.
type ingestRun struct {
	s *settings
	*archive
	blocks int // per repeat
	daq    *daq.DAQ
	spool  *daq.Spool
	ing    *repo.Ingestor
	scans  int
	value  float64
	bytes  int64 // stored at the replica, all blocks

	ingestS, fetchS, scanS []float64
	mismatched             []string
}

func buildIngest(s *settings) (instance, error) {
	a, err := newArchive(s, "ingest-")
	if err != nil {
		return nil, err
	}
	g := &ingestRun{s: s, archive: a, blocks: s.size(200, 5)}
	if g.spool, err = daq.NewSpool(filepath.Join(a.dir, "spool"), blockScans); err != nil {
		g.close()
		return nil, err
	}
	g.daq = daq.New("uiuc", s.seed)
	for c := 0; c < streamChannels; c++ {
		gain := 1 + float64(c)/streamChannels
		if err := g.daq.AddChannel(daq.Channel{
			Name: fmt.Sprintf("uiuc.ch%02d", c), Kind: daq.LVDT, Units: "m",
			Read: func() float64 { return g.value }, Gain: gain, NoiseStd: 1e-6,
		}); err != nil {
			g.close()
			return nil, err
		}
	}
	g.daq.AttachSpool(g.spool)
	g.ing = &repo.Ingestor{
		Repo: a.repo, Spool: g.spool, Owner: ingestOwner, Experiment: "bench", Site: "uiuc",
		Replica: func(block string) nfms.Replica { return a.replica("bench/uiuc/" + block) },
	}
	// Warm-up: five blocks through ingest and fetch.
	if _, err := g.cycle(-1, 5); err != nil {
		g.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	g.ingestS, g.fetchS, g.scanS = nil, nil, nil
	return g, nil
}

// block scans one spool block's worth and returns what the DAQ read.
func (g *ingestRun) block() ([]daq.Reading, error) {
	var all []daq.Reading
	for i := 0; i < blockScans; i++ {
		g.value = 0.01 * math.Sin(float64(g.scans)/40)
		readings, err := g.daq.Scan(g.scans, float64(g.scans)*0.01)
		if err != nil {
			return nil, err
		}
		g.scans++
		all = append(all, readings...)
	}
	return all, nil
}

func (g *ingestRun) repeat(r int) (repeat, error) { return g.cycle(r, g.blocks) }

// cycle archives blocks blocks one at a time, then fetches them all back.
func (g *ingestRun) cycle(r, blocks int) (repeat, error) {
	rep := repeat{ops: blocks}
	var sw stopwatch
	want := make(map[string][]daq.Reading, blocks)
	for b := 0; b < blocks; b++ {
		trace := int64(r+1)<<32 | int64(b+1)
		var readings []daq.Reading
		sp := g.s.tr.start("daq.Scan+Spool.Append", trace, nil)
		d, err := sw.time(func() (err error) { readings, err = g.block(); return err })
		sp.end()
		if err != nil {
			return rep, err
		}
		g.scanS = append(g.scanS, d/blockScans)
		var names []string
		sp = g.s.tr.start("repo.Ingestor.PollOnce", trace, nil)
		d, err = sw.time(func() (err error) { names, err = g.ing.PollOnce(); return err })
		sp.end()
		if err != nil {
			return rep, err
		}
		if len(names) != 1 {
			return rep, fmt.Errorf("poll ingested %d blocks, want the one just deposited", len(names))
		}
		rep.lat = append(rep.lat, d)
		g.ingestS = append(g.ingestS, d)
		want["bench/uiuc/"+names[0]] = readings
	}
	back := filepath.Join(g.dir, "fetched.csv")
	for logical, readings := range want {
		sp := g.s.tr.start("repo.Fetch", int64(r+1)<<32, nil)
		d, err := sw.time(func() error { return g.repo.Fetch(logical, back) })
		sp.end()
		if err != nil {
			return rep, err
		}
		g.fetchS = append(g.fetchS, d)
		got, err := daq.ReadBlock(back)
		if err != nil || !sameReadings(got, readings) {
			rep.failed++
			g.mismatched = append(g.mismatched, logical)
		}
		// The catalogue keeps the entry; the bytes go, so the store stays
		// the same size for every repeat and nothing waits to be written back.
		stored := filepath.Join(g.dir, "store", logical)
		if info, err := os.Stat(stored); err == nil {
			g.bytes += info.Size()
		}
		_ = os.Remove(stored)
	}
	rep.opsPerS = float64(blocks) / sw.wall
	rep.cpuPerOp = sw.cpu / float64(blocks)
	return rep, nil
}

func sameReadings(a, b []daq.Reading) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (g *ingestRun) finish(res *result) {
	res.check("blocks-round-trip", len(g.mismatched) == 0, "fetched blocks differ from the scans: %v", g.mismatched)
	res.check("blocks-catalogued", g.ing.Uploaded()*blockScans == g.scans,
		"%d blocks catalogued for %d scans", g.ing.Uploaded(), g.scans)
	res.layer["repo.ingest_block_s_p50"] = percentile(sorted(g.ingestS), 50)
	res.layer["repo.fetch_block_s_p50"] = percentile(sorted(g.fetchS), 50)
	res.layer["daq.spool_append_s_p50"] = percentile(sorted(g.scanS), 50)
	res.layer["repo.bytes_per_block"] = float64(g.bytes) / float64(max(g.ing.Uploaded(), 1))
}

// bulkRun moves 16 MiB files: IngestFile over GridFTP, then Fetch, then a
// CRC comparison with the source.
type bulkRun struct {
	s *settings
	*archive
	files  int    // per repeat
	src    string // seeded-random source file
	crc    uint32
	n      int
	putMBs []float64
	getMBs []float64
	bad    []string
}

func buildBulk(s *settings) (instance, error) {
	a, err := newArchive(s, "bulk-")
	if err != nil {
		return nil, err
	}
	k := &bulkRun{s: s, archive: a, files: s.size(4, 1)}
	rng := rand.New(rand.NewSource(s.seed))
	buf := make([]byte, bulkBytes)
	rng.Read(buf)
	k.src = filepath.Join(a.dir, "src.bin")
	if err := os.WriteFile(k.src, buf, 0o644); err != nil {
		k.close()
		return nil, err
	}
	k.crc = crc32.ChecksumIEEE(buf)
	if _, err := k.cycle(1); err != nil {
		k.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	k.putMBs, k.getMBs = nil, nil
	return k, nil
}

func (k *bulkRun) repeat(int) (repeat, error) { return k.cycle(k.files) }

// cycle ingests and fetches files files, one after the other.
func (k *bulkRun) cycle(files int) (repeat, error) {
	rep := repeat{ops: files}
	var sw stopwatch
	back := filepath.Join(k.dir, "fetched.bin")
	for i := 0; i < files; i++ {
		logical := fmt.Sprintf("bench/bulk/file-%06d.bin", k.n)
		k.n++
		trace := int64(k.n)
		sp := k.s.tr.start("repo.IngestFile", trace, nil)
		put, err := sw.time(func() error {
			_, err := k.repo.IngestFile(ingestOwner, "bench", "uiuc", logical, k.src, k.replica(logical), nil)
			return err
		})
		sp.end()
		if err != nil {
			return rep, err
		}
		sp = k.s.tr.start("repo.Fetch", trace, nil)
		get, err := sw.time(func() error { return k.repo.Fetch(logical, back) })
		sp.end()
		if err != nil {
			return rep, err
		}
		rep.lat = append(rep.lat, put+get)
		k.putMBs = append(k.putMBs, bulkBytes/1e6/put)
		k.getMBs = append(k.getMBs, bulkBytes/1e6/get)
		if sum, err := fileCRC(back); err != nil || sum != k.crc {
			rep.failed++
			k.bad = append(k.bad, logical)
		}
		// The catalogue keeps the entry; the bytes go, so a long run does
		// not fill the scratch directory.
		_ = os.Remove(filepath.Join(k.dir, "store", logical))
	}
	rep.opsPerS = float64(files) / sw.wall
	rep.cpuPerOp = sw.cpu / float64(files)
	return rep, nil
}

func fileCRC(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

func (k *bulkRun) finish(res *result) {
	res.check("files-round-trip", len(k.bad) == 0, "CRC mismatch after fetch: %v", k.bad)
	res.layer["repo.ingest_mb_per_s"] = percentile(sorted(k.putMBs), 50)
	res.layer["repo.fetch_mb_per_s"] = percentile(sorted(k.getMBs), 50)
}

package server

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
	"datamarket/internal/store"
)

// persistFixture is one durable registry: journal store in dir, persister
// attached with no background loop (tests drive passes explicitly for
// determinism).
type persistFixture struct {
	reg *Registry
	st  *store.Journal
	p   *Persister
}

func openPersistent(t *testing.T, dir string, fsync store.FsyncPolicy) *persistFixture {
	t.Helper()
	st, err := store.OpenJournal(store.JournalConfig{Dir: dir, Fsync: fsync})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	reg := NewRegistry(8)
	p, _, err := AttachPersistence(reg, st, PersistConfig{Interval: -1})
	if err != nil {
		t.Fatalf("AttachPersistence: %v", err)
	}
	return &persistFixture{reg: reg, st: st, p: p}
}

// multiFamilyCreates is one stream of every hosted family shape.
func multiFamilyCreates() []CreateStreamRequest {
	gamma := 0.8
	return []CreateStreamRequest{
		{ID: "lin", Family: "linear", Dim: 3, Reserve: true, Horizon: 5000},
		{ID: "hedonic", Family: "nonlinear", Dim: 2, Horizon: 5000,
			Model: &pricing.ModelConfig{Link: "exp"}},
		{ID: "kern", Family: "nonlinear", Dim: 2, Reserve: true,
			Model: &pricing.ModelConfig{Map: "landmark",
				Kernel:    &pricing.KernelConfig{Type: "rbf", Gamma: gamma},
				Landmarks: [][]float64{{0, 0}, {0.5, 0.5}, {1, 1}}}},
		{ID: "grad", Family: "sgd", Dim: 3, Reserve: true,
			Model: &pricing.ModelConfig{Eta0: 0.5, Margin: 1}},
	}
}

// priceRandomRounds drives n uniformly random full rounds across the
// given streams (deterministic for a fixed seed) and returns the quotes.
func priceRandomRounds(t *testing.T, reg *Registry, ids []string, n int, seed int64) []pricing.Quote {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	quotes := make([]pricing.Quote, 0, n)
	for i := 0; i < n; i++ {
		st, err := reg.Get(ids[rng.Intn(len(ids))])
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		x := make(linalg.Vector, st.Dim())
		for j := range x {
			x[j] = rng.Float64()
		}
		reserve := rng.Float64() * 0.5
		valuation := rng.Float64() * 2
		q, _, err := st.Price(x, reserve, valuation)
		if err != nil {
			t.Fatalf("Price %s: %v", st.ID(), err)
		}
		quotes = append(quotes, q)
	}
	return quotes
}

func registryStats(t *testing.T, reg *Registry) map[string]StatsResponse {
	t.Helper()
	out := make(map[string]StatsResponse)
	for _, st := range reg.Streams() {
		out[st.ID()] = st.Stats()
	}
	return out
}

// TestRecoveryEquivalence is the crash-recovery equivalence test of the
// durability subsystem: a random multi-family workload, a graceful kill,
// and a recovery that must serve every stream with identical counters,
// regret bookkeeping, family/model config — and identical quotes on the
// rounds that follow.
func TestRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	fx := openPersistent(t, dir, store.FsyncNever)
	var ids []string
	for _, req := range multiFamilyCreates() {
		if _, err := fx.reg.Create(req); err != nil {
			t.Fatalf("Create %s: %v", req.ID, err)
		}
		ids = append(ids, req.ID)
	}
	// Lifecycle churn: a stream that lives and dies must stay dead.
	if _, err := fx.reg.Create(CreateStreamRequest{ID: "doomed", Dim: 2, Horizon: 100}); err != nil {
		t.Fatalf("Create doomed: %v", err)
	}
	priceRandomRounds(t, fx.reg, append(ids, "doomed"), 400, 1)
	if err := fx.reg.Delete("doomed", false); err != nil {
		t.Fatalf("Delete doomed: %v", err)
	}
	wantStats := registryStats(t, fx.reg)
	wantInfos := fx.reg.List()

	// Kill: final checkpoint, compact, close. The in-memory registry
	// lives on as the reference for post-recovery quotes.
	if err := fx.p.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	fx2 := openPersistent(t, dir, store.FsyncNever)
	defer fx2.p.Shutdown()
	if got := fx2.reg.Len(); got != len(ids) {
		t.Fatalf("recovered %d streams, want %d", got, len(ids))
	}
	if _, err := fx2.reg.Get("doomed"); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("deleted stream came back from the dead: %v", err)
	}
	if gotInfos := fx2.reg.List(); !reflect.DeepEqual(gotInfos, wantInfos) {
		t.Fatalf("recovered infos = %+v, want %+v", gotInfos, wantInfos)
	}
	if gotStats := registryStats(t, fx2.reg); !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("recovered stats = %+v, want %+v", gotStats, wantStats)
	}

	// The real equivalence check: both registries, fed the same rounds,
	// must quote identically forever after (the mechanisms are
	// deterministic, so equal state ⇒ equal trajectories).
	wantQuotes := priceRandomRounds(t, fx.reg, ids, 200, 2)
	gotQuotes := priceRandomRounds(t, fx2.reg, ids, 200, 2)
	if !reflect.DeepEqual(gotQuotes, wantQuotes) {
		t.Fatal("recovered registry diverged from the original on identical post-recovery rounds")
	}
}

// TestRestartUnderLoad hammers a persistent registry with concurrent
// pricing clients while checkpoints run, then simulates a crash (no
// final checkpoint) and recovers. Run under -race in CI.
func TestRestartUnderLoad(t *testing.T) {
	dir := t.TempDir()
	fx := openPersistent(t, dir, store.FsyncNever)
	var ids []string
	for _, req := range multiFamilyCreates() {
		if _, err := fx.reg.Create(req); err != nil {
			t.Fatalf("Create %s: %v", req.ID, err)
		}
		ids = append(ids, req.ID)
	}

	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() { // checkpointer runs throughout
		defer close(ckptDone)
		for {
			select {
			case <-stop:
				return
			default:
				fx.p.Checkpoint()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				st, err := fx.reg.Get(ids[rng.Intn(len(ids))])
				if err != nil {
					t.Error(err)
					return
				}
				x := make(linalg.Vector, st.Dim())
				for j := range x {
					x[j] = rng.Float64()
				}
				if _, _, err := st.Price(x, rng.Float64()*0.5, rng.Float64()*2); err != nil {
					t.Errorf("Price: %v", err)
					return
				}
			}
		}(int64(w) + 100)
	}
	wg.Wait()
	close(stop)
	<-ckptDone

	// Quiesced: one mid-operation checkpoint pins the state recovery
	// must reproduce; then crash without the shutdown checkpoint.
	fx.p.Checkpoint()
	want := registryStats(t, fx.reg)
	fx.p.Stop()
	if err := fx.st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fx2 := openPersistent(t, dir, store.FsyncNever)
	defer fx2.p.Shutdown()
	if st := fx2.st.Stats(); st.TornTailRepaired {
		t.Fatal("journal had torn entries after concurrent checkpointing")
	}
	got := registryStats(t, fx2.reg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered stats = %+v, want the last checkpointed state %+v", got, want)
	}
	for id, s := range got {
		if s.Counters.Accepts+s.Counters.Rejects+s.Counters.Skips != s.Counters.Rounds {
			t.Fatalf("stream %s recovered inconsistent counters: %+v", id, s.Counters)
		}
		if s.Regret.Rounds != s.Counters.Rounds {
			t.Fatalf("stream %s: regret tracker has %d rounds, counters %d — snapshot tore a round",
				id, s.Regret.Rounds, s.Counters.Rounds)
		}
	}
}

// TestKillDuringLoadFsyncAlways simulates kill -9 mid-load under the
// strictest durability setting: concurrent pricing clients and a
// checkpointer hammer a journal running -fsync always, while the data
// directory is copied file by file. The copy is what a crash leaves
// behind — the active segment captured mid-append can be torn — and it
// must recover into a registry whose every stream passes the
// internal-consistency invariants.
func TestKillDuringLoadFsyncAlways(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenJournal(store.JournalConfig{
		Dir: dir, Fsync: store.FsyncAlways,
		// Never compact: a checkpoint rewrite racing the copy would not
		// be crash-consistent (a real kill -9 can't catch a rename
		// half-done; a file copy can).
		CompactAt: -1,
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	reg := NewRegistry(8)
	p, _, err := AttachPersistence(reg, st, PersistConfig{Interval: -1})
	if err != nil {
		t.Fatalf("AttachPersistence: %v", err)
	}
	var ids []string
	for _, req := range multiFamilyCreates() {
		if _, err := reg.Create(req); err != nil {
			t.Fatalf("Create %s: %v", req.ID, err)
		}
		ids = append(ids, req.ID)
	}

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() { // checkpointer: the sustained journal-append load
		defer close(ckptDone)
		for {
			select {
			case <-stop:
				return
			default:
				p.Checkpoint()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, err := reg.Get(ids[rng.Intn(len(ids))])
				if err != nil {
					t.Error(err)
					return
				}
				x := make(linalg.Vector, s.Dim())
				for j := range x {
					x[j] = rng.Float64()
				}
				if _, _, err := s.Price(x, rng.Float64()*0.5, rng.Float64()*2); err != nil {
					t.Errorf("Price: %v", err)
					return
				}
			}
		}(int64(w) + 300)
	}

	// The kill: snapshot the data directory while appends are in
	// flight. With compaction off the directory holds one segment, the
	// active one, and only it can carry a torn tail in the copy.
	time.Sleep(20 * time.Millisecond)
	copyDir := t.TempDir()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, de := range names {
		src, err := os.Open(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatalf("Open %s: %v", de.Name(), err)
		}
		dst, err := os.Create(filepath.Join(copyDir, de.Name()))
		if err != nil {
			t.Fatalf("Create %s: %v", de.Name(), err)
		}
		if _, err := io.Copy(dst, src); err != nil {
			t.Fatalf("copying %s: %v", de.Name(), err)
		}
		src.Close()
		dst.Close()
	}

	close(stop)
	wg.Wait()
	<-ckptDone
	if err := p.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Recover the snapshot. Whatever instant the copy caught, every
	// stream must come back whole: write-ahead creates mean all streams
	// exist, and snapshot atomicity means no recovered stream can have
	// half a round.
	fx := openPersistent(t, copyDir, store.FsyncNever)
	defer fx.p.Shutdown()
	if got := fx.reg.Len(); got != len(ids) {
		t.Fatalf("recovered %d streams, want %d", got, len(ids))
	}
	for id, s := range registryStats(t, fx.reg) {
		if s.Counters.Accepts+s.Counters.Rejects+s.Counters.Skips != s.Counters.Rounds {
			t.Fatalf("stream %s recovered inconsistent counters: %+v", id, s.Counters)
		}
		if s.Regret.Rounds != s.Counters.Rounds {
			t.Fatalf("stream %s: regret tracker has %d rounds, counters %d — recovery tore a round",
				id, s.Regret.Rounds, s.Counters.Rounds)
		}
	}
}

// TestCheckpointRevisionGating is the acceptance check that checkpoint
// passes are revision-gated: untouched streams are skipped, touched ones
// persisted, exactly.
func TestCheckpointRevisionGating(t *testing.T) {
	const n = 1000
	fx := openPersistent(t, t.TempDir(), store.FsyncNever)
	defer fx.p.Shutdown()
	for i := 0; i < n; i++ {
		if _, err := fx.reg.Create(CreateStreamRequest{ID: fmt.Sprintf("s%04d", i), Dim: 2, Horizon: 1000}); err != nil {
			t.Fatalf("Create: %v", err)
		}
	}
	// Creates persisted every stream already, so an immediate pass skips
	// all of them.
	if s := fx.p.Checkpoint(); s.SkippedClean != n || s.Persisted != 0 {
		t.Fatalf("idle pass = %+v, want all %d skipped clean", s, n)
	}
	// Touch 37 streams; exactly those re-persist.
	for i := 0; i < 37; i++ {
		st, _ := fx.reg.Get(fmt.Sprintf("s%04d", i*7))
		if _, _, err := st.Price(linalg.Vector{0.4, 0.6}, 0.1, 1.5); err != nil {
			t.Fatalf("Price: %v", err)
		}
	}
	if s := fx.p.Checkpoint(); s.Persisted != 37 || s.SkippedClean != n-37 {
		t.Fatalf("post-traffic pass = %+v, want exactly 37 persisted", s)
	}
	// A stream with a pending two-phase round is skipped and retried.
	st, _ := fx.reg.Get("s0001")
	if _, err := st.Quote(linalg.Vector{0.2, 0.2}, 0); err != nil {
		t.Fatalf("Quote: %v", err)
	}
	if s := fx.p.Checkpoint(); s.SkippedPending != 1 {
		t.Fatalf("pending pass = %+v, want 1 skipped pending", s)
	}
	if err := st.Observe(true); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if s := fx.p.Checkpoint(); s.Persisted != 1 {
		t.Fatalf("post-observe pass = %+v, want the pending stream persisted", s)
	}
}

// TestCheckpointDeleteRecreateRace: a checkpoint pass working from a
// stale *Stream pointer must not record the dead stream's revision
// against a recreated stream of the same ID — that would gate the new
// stream's checkpoints off forever.
func TestCheckpointDeleteRecreateRace(t *testing.T) {
	fx := openPersistent(t, t.TempDir(), store.FsyncNever)
	defer fx.p.Shutdown()
	req := CreateStreamRequest{ID: "s", Dim: 2, Horizon: 100}
	old, err := fx.reg.Create(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, _, err := old.Price(linalg.Vector{0.4, 0.6}, 0.1, 1.5); err != nil {
			t.Fatal(err)
		}
	}
	// The pass captured `old`; delete and recreate land before it gets
	// to the stream.
	if err := fx.reg.Delete("s", false); err != nil {
		t.Fatal(err)
	}
	fresh, err := fx.reg.Create(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.p.checkpointStream(old); !errors.Is(err, errCheckpointClean) {
		t.Fatalf("checkpointStream(stale) = %v, want clean skip", err)
	}
	// The new stream's rounds must still persist once it reaches the
	// dead stream's old revision count.
	for i := 0; i < 10; i++ {
		if _, _, err := fresh.Price(linalg.Vector{0.4, 0.6}, 0.1, 1.5); err != nil {
			t.Fatal(err)
		}
	}
	if s := fx.p.Checkpoint(); s.Persisted != 1 {
		t.Fatalf("pass after recreate = %+v, want the fresh stream persisted", s)
	}
	entries, err := fx.st.Load()
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries = %v, %v", entries, err)
	}
	if got := entries[0].Env.Linear.Counters.Rounds; got != 10 {
		t.Fatalf("persisted stream has %d rounds, want the recreated stream's 10", got)
	}
}

// TestLifecycleObserverVeto: a failing store vetoes the lifecycle event —
// the in-memory commit must not happen.
func TestLifecycleObserverVeto(t *testing.T) {
	reg := NewRegistry(2)
	f := &failingStore{mem: store.NewMem()}
	p := NewPersister(reg, f, PersistConfig{Interval: -1})
	reg.SetObserver(p)

	f.fail = true
	if _, err := reg.Create(CreateStreamRequest{ID: "a", Dim: 2, Horizon: 100}); !errors.Is(err, ErrPersist) {
		t.Fatalf("Create = %v, want ErrPersist", err)
	}
	if _, err := reg.Get("a"); !errors.Is(err, ErrStreamNotFound) {
		t.Fatal("vetoed create left the stream registered")
	}

	// Over HTTP a persistence failure is a 5xx — the request was valid.
	srv := httptest.NewServer(NewServer(reg).Handler())
	defer srv.Close()
	c := &client{t: t, base: srv.URL, http: srv.Client()}
	c.mustDo("POST", "/v1/streams", CreateStreamRequest{ID: "a", Dim: 2, Horizon: 100}, nil,
		http.StatusInternalServerError)

	f.fail = false
	if _, err := reg.Create(CreateStreamRequest{ID: "a", Dim: 2, Horizon: 100}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	f.fail = true
	if err := reg.Delete("a", false); err == nil {
		t.Fatal("Delete succeeded despite store failure")
	}
	if _, err := reg.Get("a"); err != nil {
		t.Fatal("vetoed delete removed the stream anyway")
	}
	f.fail = false
	if err := reg.Delete("a", false); err != nil {
		t.Fatalf("Delete: %v", err)
	}
}

// TestCheckpointCommitFailureRetries: a checkpoint pass records a
// stream's revision as persisted before its commit lands, so a failed
// commit must undo that record — or the stream's rounds would never be
// persisted until it saw more traffic.
func TestCheckpointCommitFailureRetries(t *testing.T) {
	reg := NewRegistry(2)
	f := &failingStore{mem: store.NewMem()}
	p := NewPersister(reg, f, PersistConfig{Interval: -1})
	reg.SetObserver(p)
	st, err := reg.Create(CreateStreamRequest{ID: "a", Dim: 2, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Price(linalg.Vector{0.4, 0.6}, 0.1, 1.5); err != nil {
		t.Fatal(err)
	}
	f.fail = true
	if s := p.Checkpoint(); s.Errors != 1 || s.Persisted != 0 {
		t.Fatalf("failing pass = %+v, want 1 error and 0 persisted", s)
	}
	f.fail = false
	if s := p.Checkpoint(); s.Persisted != 1 || s.Errors != 0 {
		t.Fatalf("pass after the failure = %+v, want the stream persisted", s)
	}
	if s := p.Checkpoint(); s.SkippedClean != 1 || s.Persisted != 0 {
		t.Fatalf("idle pass = %+v, want the stream clean", s)
	}
	entries, err := f.Load()
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries = %v, %v", entries, err)
	}
	if got := entries[0].Env.Linear.Counters.Rounds; got != 1 {
		t.Fatalf("persisted stream has %d rounds, want 1", got)
	}
}

// failingStore is a Store whose writes fail on demand.
type failingStore struct {
	mem  *store.Mem
	fail bool
}

func (f *failingStore) Put(e store.Entry) error {
	if f.fail {
		return errors.New("boom")
	}
	return f.mem.Put(e)
}

func (f *failingStore) PutAsync(e store.Entry) *store.Ticket { return store.ResolvedTicket(f.Put(e)) }

func (f *failingStore) Delete(id string) error {
	if f.fail {
		return errors.New("boom")
	}
	return f.mem.Delete(id)
}

func (f *failingStore) Load() ([]store.Entry, error) { return f.mem.Load() }
func (f *failingStore) Compact() error               { return nil }
func (f *failingStore) MaybeCompact() (bool, error)  { return false, nil }
func (f *failingStore) Stats() store.Stats           { return f.mem.Stats() }
func (f *failingStore) Close() error                 { return f.mem.Close() }

// newPersistentTestServer stands up the HTTP edge over a persistent
// registry.
func newPersistentTestServer(t *testing.T, dir string) (*persistFixture, *client) {
	t.Helper()
	fx := openPersistent(t, dir, store.FsyncNever)
	srv := NewServer(fx.reg)
	srv.SetPersister(fx.p)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return fx, &client{t: t, base: ts.URL, http: ts.Client()}
}

func TestAdminEndpoints(t *testing.T) {
	fx, c := newPersistentTestServer(t, t.TempDir())
	defer fx.p.Shutdown()
	c.mustDo("POST", "/v1/streams", CreateStreamRequest{ID: "a", Dim: 2, Horizon: 100}, nil, http.StatusCreated)

	var ck CheckpointResponse
	c.mustDo("POST", "/v1/admin/checkpoint?compact=true", nil, &ck, http.StatusOK)
	if ck.Streams != 1 || !ck.Compacted {
		t.Fatalf("checkpoint response = %+v", ck)
	}
	var status StoreStatusResponse
	c.mustDo("GET", "/v1/admin/store", nil, &status, http.StatusOK)
	if !status.Configured || status.Store == nil || status.Store.Backend != "journal" {
		t.Fatalf("store status = %+v", status)
	}
	if status.LastCheckpoint == nil || status.Store.Compactions != 1 {
		t.Fatalf("store status missed the admin checkpoint: %+v", status)
	}

	// Without persistence the endpoints degrade explicitly.
	_, bare := newTestServer(t)
	bare.mustDo("POST", "/v1/admin/checkpoint", nil, nil, http.StatusServiceUnavailable)
	var none StoreStatusResponse
	bare.mustDo("GET", "/v1/admin/store", nil, &none, http.StatusOK)
	if none.Configured {
		t.Fatalf("unconfigured status = %+v", none)
	}
}

// TestSnapshotCarriesRegret: the envelope carries the regret-tracker
// aggregates, and a restore resumes them (HTTP layer, fresh-ID path).
func TestSnapshotCarriesRegret(t *testing.T) {
	_, c := newTestServer(t)
	c.mustDo("POST", "/v1/streams", CreateStreamRequest{ID: "a", Dim: 2, Horizon: 100}, nil, http.StatusCreated)
	for i := 0; i < 5; i++ {
		c.price("a", []float64{0.3, 0.7}, 0.1, 1.2)
	}
	var before StatsResponse
	c.mustDo("GET", "/v1/streams/a/stats", nil, &before, http.StatusOK)
	if before.Regret.Rounds != 5 || !before.HasCounters {
		t.Fatalf("pre-snapshot stats = %+v", before)
	}

	var env pricing.Envelope
	c.mustDo("GET", "/v1/streams/a/snapshot", nil, &env, http.StatusOK)
	if env.Regret == nil {
		t.Fatal("snapshot envelope carries no regret state")
	}
	c.mustDo("POST", "/v1/streams/b/restore", env, nil, http.StatusCreated)
	var after StatsResponse
	c.mustDo("GET", "/v1/streams/b/stats", nil, &after, http.StatusOK)
	if after.Regret != before.Regret {
		t.Fatalf("restored regret = %+v, want %+v", after.Regret, before.Regret)
	}
}

// TestRestoreWithoutRegretResetsTracker pins the documented contract: an
// envelope without tracker state (legacy snapshots) restores with regret
// bookkeeping reset to zero, while the mechanism state survives.
func TestRestoreWithoutRegretResetsTracker(t *testing.T) {
	_, c := newTestServer(t)
	c.mustDo("POST", "/v1/streams", CreateStreamRequest{ID: "a", Dim: 2, Horizon: 100}, nil, http.StatusCreated)
	for i := 0; i < 5; i++ {
		c.price("a", []float64{0.3, 0.7}, 0.1, 1.2)
	}
	var env pricing.Envelope
	c.mustDo("GET", "/v1/streams/a/snapshot", nil, &env, http.StatusOK)
	env.Regret = nil // what a pre-durability envelope looks like

	c.mustDo("POST", "/v1/streams/legacy/restore", env, nil, http.StatusCreated)
	var got StatsResponse
	c.mustDo("GET", "/v1/streams/legacy/stats", nil, &got, http.StatusOK)
	if got.Regret != (RegretStats{}) {
		t.Fatalf("legacy restore regret = %+v, want zeroed tracker", got.Regret)
	}
	if got.Counters.Rounds != 5 {
		t.Fatalf("legacy restore lost mechanism counters: %+v", got.Counters)
	}
}

// TestStatsSurfacesMissingCounters: a stream's stats carry its family
// poster's counters with HasCounters set. Every hosted family keeps
// counters, so the flag is always true; it stays on the wire until the
// next API version.
func TestStatsSurfacesMissingCounters(t *testing.T) {
	reg := NewRegistry(0)
	full, err := reg.Create(CreateStreamRequest{ID: "full", Dim: 2, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if s := full.Stats(); !s.HasCounters {
		t.Fatalf("family poster lost its counters: %+v", s)
	}
}

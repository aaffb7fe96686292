package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/history"
	"mtc/internal/shard"
)

// Replay-fuzz edits: the low nibble of an input byte selects the edit
// (mod nEdits), the high nibble is its argument. Line edits index the
// records after the header; file edits index the reference jobs.
const (
	edDrop    = iota // drop record arg
	edDup            // repeat record arg right after itself
	edSwap           // swap records arg and arg+1
	edRetired        // job record arg/2 gains sparse_rt (even arg) or skip_precheck (odd)
	edEmptyID        // record arg names the empty job id
	edRmFile         // side file of job arg is missing
	edShort          // side file of job arg loses its tail
	edCorrupt        // side file of job arg has a flipped byte
	edOrphan         // an unreferenced file sits in the side directory
	edTear           // the last record is cut short, without its newline

	// Edits added later come last, so the codes above keep their
	// numbers and the committed corpus its meaning.
	edLongTail // side file of job arg gains a recycled tail: job arg+1's bytes
	nEdits
)

func ed(code, arg int) byte { return byte(arg<<4 | code) }

// replayJob is one job of the reference log.
type replayJob struct {
	id   string
	h    *history.History
	want string // canonReport of shard.Check on h
	file string // its side file's name
}

// replayRef is the reference log: what a coordinator wrote while jA and
// jD (a lost update) folded, jB stopped with one result logged and one
// component in flight, and jC was cancelled — plus every job's side
// file, each job writing a file of its own as if no released file had
// been reused yet (edLongTail adds what a reuse leaves behind).
type replayRef struct {
	jobs  []replayJob
	lines [][]byte // the records after the header
	files map[string][]byte
}

var replayReference = sync.OnceValue(func() replayRef {
	dir, err := os.MkdirTemp("", "wal-fuzz-ref-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "fabric.wal")
	c, err := Open(path, Config{})
	if err != nil {
		panic(err)
	}
	lu := history.NewBuilder("a", "b")
	lu.Txn(0, history.R("a", 0), history.W("a", 1))
	lu.Txn(1, history.R("b", 0), history.W("b", 1))
	lu.Txn(2, history.R("b", 0), history.W("b", 2))
	ref := replayRef{files: make(map[string][]byte)}
	for _, j := range []replayJob{
		{id: "jA", h: skewedHistory(2, 3)},
		{id: "jB", h: skewedHistory(1, 3, 2)},
		{id: "jC", h: skewedHistory(2, 2)},
		{id: "jD", h: lu.Build()},
	} {
		c.wal.free = nil
		if err := c.Submit(j.id, "mtc", j.h, checker.Options{Level: core.SI}); err != nil {
			panic(err)
		}
		j.file = c.jobs[j.id].side.name
		if ref.files[j.file], err = os.ReadFile(filepath.Join(path+".d", j.file)); err != nil {
			panic(err)
		}
		eng, err := checker.Lookup("mtc")
		if err != nil {
			panic(err)
		}
		rep, err := shard.Check(context.Background(), eng, j.h, checker.Options{Level: core.SI, Shard: 2})
		if err != nil {
			panic(err)
		}
		j.want = canonReport(rep)
		ref.jobs = append(ref.jobs, j)

		w := c.Register(api.WorkerHello{}).ID
		for n := 0; ; n++ {
			if j.id == "jB" && n == 2 || j.id == "jC" && n == 1 {
				break // jB: one result logged, one component in flight
			}
			task, err := c.Pull(w)
			if err != nil {
				panic(err)
			}
			if task == nil {
				break
			}
			if j.id == "jB" && n == 1 {
				continue
			}
			res, err := execTask(task)
			if err != nil {
				panic(err)
			}
			if _, err := c.PushResult(w, res); err != nil {
				panic(err)
			}
		}
		if j.id == "jC" {
			c.Cancel("jC", "fuzz cancel")
		}
	}
	if err := c.Close(); err != nil {
		panic(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	lines := bytes.SplitAfter(log, []byte("\n"))
	for _, l := range lines[1:] {
		if len(l) > 0 {
			ref.lines = append(ref.lines, l)
		}
	}
	return ref
})

// recordOf decodes a reference-log line (nil if it does not decode).
func recordOf(line []byte) *walRecord {
	var rec walRecord
	if json.Unmarshal(line, &rec) != nil {
		return nil
	}
	return &rec
}

// jobLines lists the indexes of the job records among lines.
func jobLines(lines [][]byte) []int {
	var at []int
	for i, l := range lines {
		if rec := recordOf(l); rec != nil && rec.Type == recJob {
			at = append(at, i)
		}
	}
	return at
}

// replayCase is one edited log: the lines and files to write.
type replayCase struct {
	lines [][]byte
	files map[string][]byte
	tear  int // > 0: keep only this sixteenth-fraction of the last line
}

// damaged reports whether the edits left job's side file missing or
// without the job's bytes as its prefix (a byte flipped twice is sound
// again, and so is a recycled tail past the prefix).
func (rc *replayCase) damaged(job replayJob, ref replayRef) bool {
	f, ok := rc.files[job.file]
	return !ok || !bytes.HasPrefix(f, ref.files[job.file])
}

func (rc *replayCase) edit(b byte, ref replayRef) {
	code, arg := int(b&0x0f)%nEdits, int(b>>4)
	n := len(rc.lines)
	job := ref.jobs[arg%len(ref.jobs)]
	switch code {
	case edDrop:
		if n > 0 {
			rc.lines = slices.Delete(rc.lines, arg%n, arg%n+1)
		}
	case edDup:
		if n > 0 {
			rc.lines = slices.Insert(rc.lines, arg%n+1, rc.lines[arg%n])
		}
	case edSwap:
		if n > 1 {
			i := arg % (n - 1)
			rc.lines[i], rc.lines[i+1] = rc.lines[i+1], rc.lines[i]
		}
	case edRetired:
		if at := jobLines(rc.lines); len(at) > 0 {
			field := `"sparse_rt":true,`
			if arg%2 == 1 {
				field = `"skip_precheck":true,`
			}
			i := at[arg/2%len(at)]
			rc.lines[i] = bytes.Replace(rc.lines[i], []byte(`{"type":"job",`), []byte(`{"type":"job",`+field), 1)
		}
	case edEmptyID:
		if n > 0 {
			i := arg % n
			if rec := recordOf(rc.lines[i]); rec != nil {
				rc.lines[i] = bytes.Replace(rc.lines[i], []byte(`"job":"`+rec.Job+`"`), []byte(`"job":""`), 1)
			}
		}
	case edRmFile:
		delete(rc.files, job.file)
	case edShort:
		if f, ok := rc.files[job.file]; ok {
			rc.files[job.file] = f[:len(f)*arg/16]
		}
	case edCorrupt:
		if f, ok := rc.files[job.file]; ok && len(f) > 0 {
			f = slices.Clone(f)
			f[(arg*7919)%len(f)] ^= 0x20
			rc.files[job.file] = f
		}
	case edOrphan:
		rc.files["job-orphan.mtcb"] = []byte("MTCB?")
	case edTear:
		rc.tear = arg%15 + 1
	case edLongTail:
		if f, ok := rc.files[job.file]; ok {
			rc.files[job.file] = append(slices.Clip(f), ref.files[ref.jobs[(arg+1)%len(ref.jobs)].file]...)
		}
	}
}

// write lays the case out as a WAL file and its side directory.
func (rc *replayCase) write(t *testing.T, path string) {
	var log bytes.Buffer
	log.WriteString(walHeader + "\n")
	for i, l := range rc.lines {
		if i == len(rc.lines)-1 && rc.tear > 0 {
			l = l[:(len(l)-1)*rc.tear/16]
		}
		log.Write(l)
	}
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".d", 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range rc.files {
		if err := os.WriteFile(filepath.Join(path+".d", name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// intact lists the records replay reads: every line the tear spared.
func (rc *replayCase) intact() []*walRecord {
	var recs []*walRecord
	for i, l := range rc.lines {
		if i == len(rc.lines)-1 && rc.tear > 0 {
			break
		}
		if rec := recordOf(l); rec != nil {
			recs = append(recs, rec)
		}
	}
	return recs
}

// checkReplay holds a coordinator just opened over rc to the replay
// contract.
func checkReplay(t *testing.T, c *Coordinator, path string, rc *replayCase, ref replayRef) {
	t.Helper()
	terminal := make(map[string]bool)
	for _, rec := range rc.intact() {
		if rec.Type == recDone || rec.Type == recFail {
			terminal[rec.Job] = true
		}
	}
	for _, j := range c.Jobs() {
		switch {
		case j.State == JobPending && terminal[j.ID]:
			t.Fatalf("job %s is pending again after its terminal record", j.ID)
		case j.State == JobPending && rc.damaged(ref.job(j.ID), ref):
			t.Fatalf("job %s resumed over a damaged side file", j.ID)
		case j.State == JobDone && canonReport(*j.Report) != ref.job(j.ID).want:
			t.Fatalf("job %s replayed a wrong verdict:\nfabric: %s\nlocal:  %s", j.ID, canonReport(*j.Report), ref.job(j.ID).want)
		case j.State == JobFailed && strings.Contains(j.Err, ErrHistoryFile.Error()) && !rc.damaged(ref.job(j.ID), ref):
			t.Fatalf("job %s failed over a sound history: %s", j.ID, j.Err)
		}
	}
	live := []string{}
	c.mu.Lock()
	for _, j := range c.jobs {
		if j.state == JobPending && j.side.name != "" {
			live = append(live, j.side.name)
		}
	}
	c.mu.Unlock()
	slices.Sort(live)
	if files := sideFiles(t, path); !slices.Equal(files, live) {
		t.Fatalf("side directory holds %v, the pending jobs own %v", files, live)
	}
}

// job returns the reference job with the given id.
func (r replayRef) job(id string) replayJob {
	return r.jobs[slices.IndexFunc(r.jobs, func(j replayJob) bool { return j.id == id })]
}

// FuzzWALReplay edits a reference log — records torn, dropped,
// duplicated and reordered, retired fields and empty ids, side files
// missing, short, corrupt, orphaned or with a recycled tail — and
// asserts that Open either refuses the log or replays it without a
// wrong verdict: a done job carries shard.Check's report, a job with an
// intact terminal record stays terminal, a pending job never resumes
// over a damaged side file, only damage fails a job with
// ErrHistoryFile, and the side directory holds the pending jobs' files
// and nothing else. Draining what is left then folds only right
// verdicts, and a restart keeps every terminal state.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{ed(edTear, 7)})
	f.Add([]byte{ed(edCorrupt, 1), ed(edShort, 2), ed(edOrphan, 0)})
	f.Add([]byte{ed(edRmFile, 1)})
	f.Add([]byte{ed(edDrop, 5), ed(edDup, 3), ed(edSwap, 8)})
	f.Add([]byte{ed(edRetired, 2), ed(edRetired, 5)})
	f.Add([]byte{ed(edEmptyID, 0)})
	f.Add([]byte{ed(edDrop, 11), ed(edRmFile, 0)})
	f.Add([]byte{ed(edLongTail, 0), ed(edLongTail, 3), ed(edDrop, 11)})
	f.Add([]byte{ed(edLongTail, 1)})
	f.Fuzz(func(t *testing.T, edits []byte) {
		if len(edits) > 16 {
			edits = edits[:16]
		}
		ref := replayReference()
		rc := &replayCase{
			lines: slices.Clone(ref.lines),
			files: make(map[string][]byte),
		}
		for name, b := range ref.files {
			rc.files[name] = b
		}
		for _, b := range edits {
			rc.edit(b, ref)
		}
		path := filepath.Join(t.TempDir(), "fabric.wal")
		rc.write(t, path)
		cfg := Config{HeartbeatTimeout: 100 * time.Millisecond}
		c, err := Open(path, cfg)
		if err != nil {
			return // a log replay cannot trust is refused, not guessed at
		}
		defer func() { _ = c.Close() }()
		checkReplay(t, c, path, rc, ref)

		w := c.Register(api.WorkerHello{}).ID
		drain(t, c, w)
		before := c.Jobs()
		for _, j := range before {
			if j.State == JobPending {
				t.Fatalf("job %s is still pending after the drain", j.ID)
			}
			if j.State == JobDone && canonReport(*j.Report) != ref.job(j.ID).want {
				t.Fatalf("job %s folded a wrong verdict after replay", j.ID)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c, err = Open(path, cfg); err != nil {
			t.Fatalf("reopen after the drain: %v", err)
		}
		after := c.Jobs()
		for i := range before {
			if after[i].State != before[i].State || (before[i].Report == nil) != (after[i].Report == nil) ||
				before[i].Report != nil && canonReport(*after[i].Report) != canonReport(*before[i].Report) {
				t.Fatalf("job %s was %s, reopens %+v", before[i].ID, before[i].State, after[i])
			}
		}
		if files := sideFiles(t, path); len(files) != 0 {
			t.Fatalf("side files after every job ended: %v", files)
		}
	})
}

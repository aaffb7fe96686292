package checker

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtc/internal/corpus"
	"mtc/internal/history"
)

var writeCorpus = flag.Bool("write-corpus", false, "regenerate the MTCB histories under testdata/corpus from corpus.Shapes")

// The committed digest corpus: corpus.Shapes at corpusTxns transactions
// and seed corpusSeed, one MTCB file per shape.
const (
	corpusDir   = "testdata/corpus"
	corpusTxns  = 1200
	corpusSeed  = 1
	digestsFile = "testdata/corpus.digests"
)

// TestWriteCorpus regenerates the committed corpus under -write-corpus
// and is a no-op otherwise; the digests are what pins behaviour, so the
// files change only together with an -update-golden run.
func TestWriteCorpus(t *testing.T) {
	if !*writeCorpus {
		t.Skip("run with -write-corpus to regenerate testdata/corpus")
	}
	for _, s := range corpus.Shapes(corpusTxns, corpusSeed) {
		if err := history.SaveFile(filepath.Join(corpusDir, s.Name+".mtcb"), s.H); err != nil {
			t.Fatal(err)
		}
	}
}

// reportDigest is the sha256 of a report canonicalised the way
// TestRegistryVerdictsGolden keys its rows: the JSON object minus the
// wall-clock timings and the engine name, re-marshalled with sorted
// keys; an engine's error hashes as {"error": message}.
func reportDigest(t *testing.T, rep Report, err error) string {
	t.Helper()
	var row any = map[string]string{"error": fmt.Sprint(err)}
	if err == nil {
		raw, merr := json.Marshal(rep)
		if merr != nil {
			t.Fatal(merr)
		}
		var m map[string]any
		if uerr := json.Unmarshal(raw, &m); uerr != nil {
			t.Fatal(uerr)
		}
		delete(m, "timings")
		delete(m, "checker")
		row = m
	}
	canon, merr := json.Marshal(row)
	if merr != nil {
		t.Fatal(merr)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// TestCorpusDigestsGolden runs every registered engine at every level it
// lists over every history of the committed corpus — once through the
// MTCB indexed decoder's Index, once through a fresh NewIndex — and
// compares the report digests with corpus.digests. The digests were
// written before the batch derivation's linear-time rewrite, so a diff
// is a verdict, counterexample or statistic that moved.
func TestCorpusDigestsGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.mtcb"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 12 {
		t.Fatalf("digest corpus has %d histories, want at least 12", len(files))
	}
	var b strings.Builder
	for _, path := range files {
		ix, err := history.LoadFileIndexed(path)
		if err != nil {
			t.Fatal(err)
		}
		h, err := history.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range Default.All() {
			for _, lvl := range c.Levels() {
				rep, err := Run(context.Background(), c.Name(), ix.History(), Options{Level: lvl, Index: ix})
				got := reportDigest(t, rep, err)
				rep, err = Run(context.Background(), c.Name(), h, Options{Level: lvl})
				if fresh := reportDigest(t, rep, err); fresh != got {
					t.Fatalf("%s %s@%s: the MTCB index and NewIndex disagree", filepath.Base(path), c.Name(), lvl)
				}
				fmt.Fprintf(&b, "%s %s@%s %s\n", filepath.Base(path), c.Name(), lvl, got)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(digestsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatalf("read digests (run with -update-golden to create): %v", err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("digest drifted:\n got: %s\nwant: %s", g, w)
		}
	}
}

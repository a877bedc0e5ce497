package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"doublechecker/internal/cli"
	"doublechecker/internal/server"
	"doublechecker/internal/store"
)

// FuzzCheckRequest drives POST /check in process with arbitrary trace bodies
// and analysis names, on a storeless server and on one with a memory store.
// Whatever the input, neither server panics or answers 5xx, both answer
// with the same status and X-DC-Error, a 200's body is the same from both
// and equals `dcheck -replay` on the same bytes, and a non-200 leaves
// nothing in the store: the same upload again is not a hit.
func FuzzCheckRequest(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join(goldenDir, "*.dct"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("golden corpus: %v (%d traces)", err, len(golden))
	}
	analyses := []string{"dc-single", "velodrome", "pcd-only", ""}
	for i, path := range golden {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, analyses[i%len(analyses)])
		if i == 0 {
			f.Add(raw[:len(raw)/2], "dc-single")
			flipped := bytes.Clone(raw)
			flipped[len(flipped)/2] ^= 0x10
			f.Add(flipped, "velodrome")
			f.Add(raw, "baseline")
			f.Add(raw, "nope")
		}
	}
	kept, err := filepath.Glob(filepath.Join("..", "trace", "testdata", "fuzz", "FuzzRead", "*"))
	if err != nil || len(kept) == 0 {
		f.Fatalf("FuzzRead corpus: %v (%d inputs)", err, len(kept))
	}
	for _, path := range kept {
		f.Add(readCorpusBytes(f, path), "dc-single")
	}

	bare := server.New(server.Config{}).Handler()
	cache, err := store.Open(store.Config{MemBudget: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	stored := server.New(server.Config{Cache: cache}).Handler()
	// The display name is the path dcheck -replay reads, so a 200's body
	// must match its output byte for byte.
	path := filepath.Join(f.TempDir(), "upload.dct")

	f.Fuzz(func(t *testing.T, body []byte, analysis string) {
		if len(body) > 1<<20 {
			t.Skip("oversized input")
		}
		query := url.Values{"name": {path}, "analysis": {analysis}}.Encode()
		check := func(h http.Handler) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/check?"+query, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("status %d (%s): %s", rec.Code, rec.Header().Get(server.ErrorKindHeader), rec.Body)
			}
			return rec
		}
		b, s := check(bare), check(stored)
		if b.Code != s.Code || b.Header().Get(server.ErrorKindHeader) != s.Header().Get(server.ErrorKindHeader) {
			t.Fatalf("storeless %d %q, stored %d %q", b.Code, b.Header().Get(server.ErrorKindHeader),
				s.Code, s.Header().Get(server.ErrorKindHeader))
		}
		if c := b.Header().Get(server.CacheHeader); c != "" {
			t.Fatalf("storeless server sent %s: %s", server.CacheHeader, c)
		}
		if b.Code != http.StatusOK {
			if c := check(stored).Header().Get(server.CacheHeader); c == "hit" {
				t.Fatalf("status %d left an entry behind: the repeat upload was a hit", b.Code)
			}
			return
		}
		if b.Body.String() != s.Body.String() {
			t.Fatalf("storeless and stored bodies differ:\n%s\nvs:\n%s", b.Body, s.Body)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		args := []string{"-replay", path}
		if analysis != "" {
			args = append([]string{"-analysis", analysis}, args...)
		}
		var out, errb bytes.Buffer
		if code := cli.DCheck(args, &out, &errb); code != 0 {
			t.Fatalf("dcheck %v: exit %d after a 200: %s", args, code, errb.String())
		}
		if got := b.Body.String(); got != out.String() {
			t.Fatalf("served report differs from dcheck -replay\nserved:\n%s\ndcheck:\n%s", got, out.String())
		}
	})
}

// readCorpusBytes decodes a `go test fuzz v1` corpus file that holds one
// []byte value.
func readCorpusBytes(tb testing.TB, path string) []byte {
	tb.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(text)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		tb.Fatalf("%s: not a one-value corpus file", path)
	}
	lit, isBytes := strings.CutPrefix(lines[1], "[]byte(")
	lit, closed := strings.CutSuffix(lit, ")")
	if !isBytes || !closed {
		tb.Fatalf("%s: value is not a []byte", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

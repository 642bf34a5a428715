package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ledgerdb/internal/streamfs"
)

// recFS records which FileSystem and File methods were reached.
type recFS struct{ calls map[string]int }

func (r *recFS) hit(name string) { r.calls[name]++ }

func (r *recFS) MkdirAll(string) error                  { r.hit("MkdirAll"); return nil }
func (r *recFS) Glob(string) ([]string, error)          { r.hit("Glob"); return nil, nil }
func (r *recFS) Truncate(string, int64) error           { r.hit("Truncate"); return nil }
func (r *recFS) Remove(string) error                    { r.hit("Remove"); return nil }
func (r *recFS) Rename(string, string) error            { r.hit("Rename"); return nil }
func (r *recFS) WriteFile(string, []byte) error         { r.hit("WriteFile"); return nil }
func (r *recFS) ReadFile(string) ([]byte, error)        { r.hit("ReadFile"); return []byte("abc"), nil }
func (r *recFS) Create(string) (streamfs.File, error)   { r.hit("Create"); return recFile{r}, nil }
func (r *recFS) OpenRead(string) (streamfs.File, error) { r.hit("OpenRead"); return recFile{r}, nil }
func (r *recFS) OpenAppend(string) (streamfs.File, error) {
	r.hit("OpenAppend")
	return recFile{r}, nil
}

type recFile struct{ r *recFS }

func (f recFile) Write(p []byte) (int, error)           { f.r.hit("File.Write"); return len(p), nil }
func (f recFile) ReadAt(p []byte, _ int64) (int, error) { f.r.hit("File.ReadAt"); return len(p), nil }
func (f recFile) Size() (int64, error)                  { f.r.hit("File.Size"); return 7, nil }
func (f recFile) Truncate(int64) error                  { f.r.hit("File.Truncate"); return nil }
func (f recFile) Sync() error                           { f.r.hit("File.Sync"); return nil }
func (f recFile) Close() error                          { f.r.hit("File.Close"); return nil }

// Every method of streamfs.FileSystem and streamfs.File must reach the
// wrapped implementation exactly once per call; reflection over the
// interfaces makes the test fail when either grows a method the wrapper
// would silently swallow through embedding.
func TestCountingFSForwardsEveryMethod(t *testing.T) {
	rec := &recFS{calls: map[string]int{}}
	c := &fsCounters{}
	var fs streamfs.FileSystem = countingFS{inner: rec, c: c}

	_ = fs.MkdirAll("d")
	_, _ = fs.Glob("*")
	_ = fs.Truncate("p", 1)
	_ = fs.Remove("p")
	_ = fs.Rename("a", "b")
	_ = fs.WriteFile("p", []byte("12345"))
	_, _ = fs.ReadFile("p")
	for _, open := range []func(string) (streamfs.File, error){fs.Create, fs.OpenAppend, fs.OpenRead} {
		f, err := open("p")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = f.Write(make([]byte, 10))
		_, _ = f.ReadAt(make([]byte, 4), 0)
		if n, _ := f.Size(); n != 7 {
			t.Errorf("Size not forwarded: %d", n)
		}
		_ = f.Truncate(0)
		_ = f.Sync()
		_ = f.Close()
	}

	want := map[string]int{}
	ft := reflect.TypeOf((*streamfs.FileSystem)(nil)).Elem()
	for i := 0; i < ft.NumMethod(); i++ {
		want[ft.Method(i).Name] = 1
	}
	ff := reflect.TypeOf((*streamfs.File)(nil)).Elem()
	for i := 0; i < ff.NumMethod(); i++ {
		want["File."+ff.Method(i).Name] = 3 // once per open mode
	}
	if !reflect.DeepEqual(rec.calls, want) {
		t.Errorf("forwarded calls = %v\nwant %v", rec.calls, want)
	}
	got := c.snapshot()
	wantCounts := fsSnapshot{writeCalls: 4, writeBytes: 35, readCalls: 4, readBytes: 15, fsyncCalls: 4}
	got.fsyncNanos = 0
	if got != wantCounts {
		t.Errorf("counts = %+v, want %+v", got, wantCounts)
	}
}

// writeStreams drives a disk store through fs and returns its files.
func writeStreams(t *testing.T, fs streamfs.FileSystem) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	store, err := streamfs.OpenDisk(dir, streamfs.DiskOptions{SyncEvery: 16, SegmentSize: 4096, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"journals", "blocks"} {
		s, err := store.Stream(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ { // crosses several 4 KiB segments
			if _, err := s.Append([]byte(fmt.Sprintf("%s record %04d %s", name, i, bytes.Repeat([]byte{byte(i)}, i%97)))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Read(150); err != nil {
			t.Fatal(err)
		}
		if err := s.Truncate(40); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	err = filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		files[rel], err = os.ReadFile(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// Streams written through the counting wrapper must be byte-identical
// to streams written without it: the instrument may not change what it
// measures. (Compared at the stream layer: two ledgers can never be
// byte-identical because every LSP signature is randomised.)
func TestCountingFSLeavesStreamFilesByteIdentical(t *testing.T) {
	c := &fsCounters{}
	plain := writeStreams(t, nil)
	wrapped := writeStreams(t, countingFS{inner: streamfs.OSFileSystem(), c: c})
	names := func(m map[string][]byte) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(names(plain), names(wrapped)) {
		t.Fatalf("file sets differ: %v vs %v", names(plain), names(wrapped))
	}
	if len(plain) < 4 {
		t.Fatalf("only %d files written; the test no longer crosses segments", len(plain))
	}
	var total int64
	for name, b := range plain {
		if !bytes.Equal(b, wrapped[name]) {
			t.Errorf("%s differs between wrapped and unwrapped run", name)
		}
		total += int64(len(b))
	}
	s := c.snapshot()
	if s.writeCalls == 0 || s.fsyncCalls == 0 || s.readCalls == 0 {
		t.Errorf("wrapper saw no traffic: %+v", s)
	}
	if s.writeBytes < total {
		t.Errorf("counted %d written bytes, files hold %d", s.writeBytes, total)
	}
}

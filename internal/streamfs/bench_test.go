package streamfs

import (
	"fmt"
	"testing"

	"ledgerdb/internal/hashutil"
)

// Stream throughput bounds the ledger's raw append path (one journal
// record + one digest record per commit).

func BenchmarkAppendMemory(b *testing.B) {
	s := NewMemory()
	st, _ := s.Stream("bench")
	rec := make([]byte, 256)
	b.SetBytes(int64(len(rec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendDisk(b *testing.B) {
	s, err := OpenDisk(b.TempDir(), DiskOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	st, _ := s.Stream("bench")
	rec := make([]byte, 256)
	b.SetBytes(int64(len(rec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadDisk(b *testing.B) {
	s, err := OpenDisk(b.TempDir(), DiskOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	st, _ := s.Stream("bench")
	const n = 4096
	for i := 0; i < n; i++ {
		if _, err := st.Append([]byte(fmt.Sprintf("record-%4d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Read(uint64(i*31) % n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlobPutGet(b *testing.B) {
	blobs := NewMemoryBlobs()
	data := make([]byte, 4096)
	b.Run("put", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			data[0] = byte(i)
			data[1] = byte(i >> 8)
			key := hashutil.Sum(data)
			if err := blobs.Put(key, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The payload log at the benchmark's payload size (ledgerbench: 256 B).
// Put is one framed append plus the digest check; Get is one positioned
// read plus the digest check. Neither includes an fsync — the ledger
// flushes the log once per commit group, not per payload.

func benchPayloads(n int) ([][]byte, []hashutil.Digest) {
	data := make([][]byte, n)
	keys := make([]hashutil.Digest, n)
	for i := range data {
		data[i] = make([]byte, 256)
		copy(data[i], fmt.Sprintf("payload-%d", i))
		keys[i] = hashutil.Sum(data[i])
	}
	return data, keys
}

func BenchmarkDiskBlobsPut(b *testing.B) {
	s, err := OpenDiskBlobs(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.(*payloadLog).Close()
	data, keys := benchPayloads(b.N)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i], data[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskBlobsGet(b *testing.B) {
	s, err := OpenDiskBlobs(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.(*payloadLog).Close()
	const n = 4096
	data, keys := benchPayloads(n)
	for i := range data {
		if err := s.Put(keys[i], data[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(keys[(i*31)%n]); err != nil {
			b.Fatal(err)
		}
	}
}

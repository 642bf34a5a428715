package streamfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Segment file layout:
//
//	header : [u32 magic][u32 version][u64 firstSeq]
//	records: repeated [u32 len][u32 crc32c(payload)][payload]
//
// The first sequence number is stored in the header so that the index can
// be rebuilt after leading segments have been deleted by Truncate.
const (
	segMagic     = 0x4c445345 // "LDSE"
	segVersion   = 1
	segHeaderLen = 16
	frameHdrLen  = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DiskOptions tunes the on-disk store.
type DiskOptions struct {
	// SegmentSize is the byte capacity at which a segment rolls over.
	// Zero means 64 MiB.
	SegmentSize int64
	// SyncEvery forces an fsync after every N appends. Zero disables
	// automatic syncing; callers then use Stream.Sync at commit points.
	SyncEvery int
	// FS is the backing file system. Nil means the operating system;
	// crash tests inject a simulated disk image (faultfs).
	FS FileSystem
}

func (o DiskOptions) withDefaults() DiskOptions {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 64 << 20
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}

// diskStore is the persistent Store implementation.
type diskStore struct {
	dir  string
	opts DiskOptions

	mu      sync.Mutex
	streams map[string]*diskStream
	closed  bool
}

// OpenDisk opens (creating if needed) a disk store rooted at dir.
// Existing streams are recovered: torn tails from a crash mid-append are
// truncated away, a torn segment header from a crash mid-rollover drops
// the empty tail segment; interior corruption fails the open.
func OpenDisk(dir string, opts DiskOptions) (Store, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("streamfs: open %s: %w", dir, err)
	}
	return &diskStore{dir: dir, opts: opts, streams: make(map[string]*diskStream)}, nil
}

func (s *diskStore) Stream(name string) (Stream, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if st, ok := s.streams[name]; ok {
		return st, nil
	}
	st, err := openDiskStream(s.dir, name, s.opts)
	if err != nil {
		return nil, err
	}
	s.streams[name] = st
	return st, nil
}

func (s *diskStore) Streams() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	paths, err := s.opts.FS.Glob(pathJoin(s.dir, "*.seg.*"))
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, p := range paths {
		n := pathBase(p)
		if i := strings.Index(n, ".seg."); i > 0 {
			seen[n[:i]] = true
		}
	}
	for n := range s.streams {
		seen[n] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (s *diskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, st := range s.streams {
		if err := st.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// segment describes one on-disk segment file.
type segment struct {
	index    int // position in the file name, monotonically increasing
	path     string
	firstSeq uint64
	offsets  []int64 // byte offset of each record frame
	size     int64   // current byte size

	// rd is a cached read handle, opened lazily by the first read and
	// closed when the segment is retired (truncation) or the stream
	// closes. ReadAt is positional (pread), so one handle serves
	// concurrent readers; before the cache every Read paid an
	// open+close pair per record.
	rdMu sync.Mutex
	rd   File
}

func (g *segment) lastSeq() uint64 { return g.firstSeq + uint64(len(g.offsets)) }

// reader returns the cached read handle, opening it on first use.
func (g *segment) reader(fsys FileSystem) (File, error) {
	g.rdMu.Lock()
	defer g.rdMu.Unlock()
	if g.rd == nil {
		f, err := fsys.OpenRead(g.path)
		if err != nil {
			return nil, err
		}
		g.rd = f
	}
	return g.rd, nil
}

// closeReader drops the cached handle (segment retired or stream closed).
func (g *segment) closeReader() {
	g.rdMu.Lock()
	if g.rd != nil {
		g.rd.Close()
		g.rd = nil
	}
	g.rdMu.Unlock()
}

type diskStream struct {
	dir  string
	name string
	opts DiskOptions

	mu       sync.RWMutex
	segs     []*segment
	active   File   // write handle on the last segment
	base     uint64 // first readable sequence (advanced by Truncate)
	next     uint64 // next sequence to assign
	unsynced int
	// barrier, when set (SelfSyncer), runs ahead of every flush the
	// stream issues on its own.
	barrier func() error
	// failed latches a write error whose on-disk damage could not be
	// rolled back (a partial frame that would make in-memory offsets lie
	// about the bytes that follow it). Every later Append refuses with
	// it rather than compound the divergence; reads of the intact prefix
	// keep working, and a reopen re-scans and repairs the tail.
	failed error
	// frameBuf is the reusable Append frame scratch. Append holds the
	// write lock and every FileSystem (OS and faultfs alike) copies the
	// bytes out of Write before returning, so one buffer per stream
	// removes the per-append frame allocation.
	frameBuf []byte
}

func segPath(dir, name string, index int) string {
	return pathJoin(dir, fmt.Sprintf("%s.seg.%08d", name, index))
}

func openDiskStream(dir, name string, opts DiskOptions) (*diskStream, error) {
	pattern := pathJoin(dir, name+".seg.*")
	paths, err := opts.FS.Glob(pattern)
	if err != nil {
		return nil, err
	}
	paths, err = dropTornHeaderTails(opts.FS, paths)
	if err != nil {
		return nil, err
	}
	st := &diskStream{dir: dir, name: name, opts: opts}
	for i, p := range paths {
		idx, err := strconv.Atoi(strings.TrimPrefix(pathBase(p), name+".seg."))
		if err != nil {
			return nil, fmt.Errorf("streamfs: stray segment file %s", p)
		}
		last := i == len(paths)-1
		seg, err := scanSegment(opts.FS, p, idx, last, func(seg *segment, off int64, _ []byte) {
			seg.offsets = append(seg.offsets, off)
		})
		if err != nil {
			return nil, err
		}
		st.segs = append(st.segs, seg)
	}
	if n := len(st.segs); n > 0 {
		st.next = st.segs[n-1].lastSeq()
		st.base = st.segs[0].firstSeq
		f, err := opts.FS.OpenAppend(st.segs[n-1].path)
		if err != nil {
			return nil, err
		}
		st.active = f
	}
	if b, err := readBaseMeta(opts.FS, dir, name); err != nil {
		return nil, err
	} else if b > st.base {
		st.base = b
	}
	if st.next < st.base {
		// A SetBase survived (segments removed, base meta written) with
		// no appends since: the stream is empty and restarts at base.
		st.next = st.base
	}
	return st, nil
}

func fileSize(fsys FileSystem, path string) (int64, error) {
	f, err := fsys.OpenRead(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.Size()
}

// dropTornHeaderTails sorts a stream's segment paths and removes tail
// segments shorter than the fixed header. A crash inside createSegment's
// header write leaves such a segment; it holds no records — drop it (and
// repeat, defensively, should several empty tails have piled up) so the
// previous segment is scanned as the true tail instead of bricking the
// reopen with ErrCorrupt.
func dropTornHeaderTails(fsys FileSystem, paths []string) ([]string, error) {
	sort.Strings(paths)
	for len(paths) > 0 {
		last := paths[len(paths)-1]
		n, err := fileSize(fsys, last)
		if err != nil {
			return nil, err
		}
		if n >= segHeaderLen {
			break
		}
		if err := fsys.Remove(last); err != nil {
			return nil, err
		}
		paths = paths[:len(paths)-1]
	}
	return paths, nil
}

// scanChunk is the read-ahead of walkFrames: segments are scanned through
// one buffer of this size (grown only for a single frame that exceeds
// it), never loaded whole.
const scanChunk = 256 << 10

// walkFrames validates the frames of one segment file in order and hands
// fn each intact frame (header included; the record is
// frame[frameHdrLen:]) with its offset. The frame aliases the scan buffer
// and is valid only during the call. It returns the offset just
// past the last intact frame, and torn = true when the bytes from there
// to total do not form a valid frame (short header, impossible length,
// checksum mismatch). The caller decides whether that is a repairable
// tail or corruption.
func walkFrames(f File, total int64, fn func(off int64, frame []byte) error) (end int64, torn bool, err error) {
	var (
		buf    []byte
		bufOff int64 // buf holds file bytes [bufOff, bufOff+len(buf))
	)
	// fill makes buf cover at least need bytes from pos (the caller has
	// checked they exist), reading ahead up to scanChunk.
	fill := func(pos, need int64) error {
		if have := bufOff + int64(len(buf)) - pos; have >= need {
			return nil
		}
		want := min(max(need, scanChunk), total-pos)
		if int64(cap(buf)) < want {
			buf = make([]byte, want)
		}
		buf = buf[:want]
		bufOff = pos
		_, err := f.ReadAt(buf, pos)
		return err
	}
	pos := int64(segHeaderLen)
	for pos < total {
		if total-pos < frameHdrLen {
			return pos, true, nil
		}
		if err := fill(pos, frameHdrLen); err != nil {
			return pos, false, err
		}
		hdr := buf[pos-bufOff:]
		n := int64(binary.BigEndian.Uint32(hdr[0:4]))
		want := binary.BigEndian.Uint32(hdr[4:8])
		if n > MaxRecordSize || pos+frameHdrLen+n > total {
			return pos, true, nil
		}
		if err := fill(pos, frameHdrLen+n); err != nil {
			return pos, false, err
		}
		frame := buf[pos-bufOff:][:frameHdrLen+n]
		if crc32.Checksum(frame[frameHdrLen:], castagnoli) != want {
			return pos, true, nil
		}
		if err := fn(pos, frame); err != nil {
			return pos, false, err
		}
		pos += frameHdrLen + n
	}
	return pos, false, nil
}

// openSegment opens a segment file for scanning and checks its header,
// returning the handle, the file's size and the header's firstSeq.
func openSegment(fsys FileSystem, path string) (f File, total int64, firstSeq uint64, err error) {
	f, err = fsys.OpenRead(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	if total, err = f.Size(); err != nil {
		return nil, 0, 0, err
	}
	var hdr [segHeaderLen]byte
	if total < segHeaderLen {
		// Interior segments always have full headers (dropTornHeaderTails
		// removed header-torn tails before scanning).
		return nil, 0, 0, fmt.Errorf("%w: %s: short header", ErrCorrupt, path)
	}
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %s: short header", ErrCorrupt, path)
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != segMagic || binary.BigEndian.Uint32(hdr[4:8]) != segVersion {
		return nil, 0, 0, fmt.Errorf("%w: %s: bad magic/version", ErrCorrupt, path)
	}
	return f, total, binary.BigEndian.Uint64(hdr[8:16]), nil
}

// scanSegment validates a segment file, handing visit every intact frame
// (see walkFrames) so the caller can build its index. When tail is true,
// a torn final frame is repaired by truncation; otherwise any damage is
// corruption.
func scanSegment(fsys FileSystem, path string, index int, tail bool, visit func(seg *segment, off int64, frame []byte)) (*segment, error) {
	f, total, firstSeq, err := openSegment(fsys, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	seg := &segment{index: index, path: path, firstSeq: firstSeq}
	end, torn, err := walkFrames(f, total, func(off int64, frame []byte) error {
		visit(seg, off, frame)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if torn {
		return repairTail(fsys, path, seg, end, tail)
	}
	seg.size = end
	return seg, nil
}

func repairTail(fsys FileSystem, path string, seg *segment, off int64, tail bool) (*segment, error) {
	if !tail {
		return nil, fmt.Errorf("%w: %s at offset %d (interior segment)", ErrCorrupt, path, off)
	}
	if err := fsys.Truncate(path, off); err != nil {
		return nil, err
	}
	seg.size = off
	return seg, nil
}

func (st *diskStream) Append(record []byte) (uint64, error) {
	if len(record) > MaxRecordSize {
		return 0, ErrTooLarge
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed != nil {
		return 0, st.failed
	}
	seg := st.lastSeg()
	if seg == nil || seg.size >= st.opts.SegmentSize {
		var err error
		seg, err = st.rollLocked()
		if err != nil {
			return 0, err
		}
	}
	frame := putFrame(st.frameBuf, record)
	st.frameBuf = frame
	if err, terr := writeFrame(st.active, frame, seg.size); err != nil {
		// A partial frame was on disk and writeFrame rolled the file back
		// to the last intact record, so seg.offsets/seg.size stay truthful
		// and the next append starts on a clean boundary; if even the
		// rollback failed, poison the stream — the in-memory index no
		// longer matches the file and only a reopen (which re-scans and
		// repairs the tail) can be trusted.
		if terr != nil {
			st.failed = fmt.Errorf("streamfs: append %s: %w (rollback failed: %v; stream needs reopen)", st.name, err, terr)
			return 0, st.failed
		}
		return 0, fmt.Errorf("streamfs: append %s: %w", st.name, err)
	}
	seg.offsets = append(seg.offsets, seg.size)
	seg.size += int64(len(frame))
	if cap(st.frameBuf) > maxPooledRecBuf {
		st.frameBuf = nil // don't let one huge record pin its frame forever
	}
	seq := st.next
	st.next++
	st.unsynced++
	if st.opts.SyncEvery > 0 && st.unsynced >= st.opts.SyncEvery {
		if err := st.selfSyncLocked(); err != nil {
			// The record IS appended and seq assigned — report both, and
			// latch the stream: after a failed fsync the kernel may have
			// dropped the dirty pages, so nothing further can be trusted
			// to land (callers decide whether seq reached disk by
			// reopening and re-scanning).
			st.failed = fmt.Errorf("streamfs: sync %s after append: %w (stream needs reopen)", st.name, err)
			return seq, st.failed
		}
		st.unsynced = 0
	}
	return seq, nil
}

// writeFrame appends frame to f, whose intact length is size. A failed or
// short write is returned as err after cutting the partial frame off
// again; rollbackErr is non-nil when that truncation failed too and the
// file can no longer be trusted to end on a frame boundary.
func writeFrame(f File, frame []byte, size int64) (err, rollbackErr error) {
	n, err := f.Write(frame)
	if err == nil && n == len(frame) {
		return nil, nil
	}
	if err == nil {
		err = io.ErrShortWrite
	}
	return err, f.Truncate(size)
}

// putFrame encodes record as one [len][crc32c][payload] frame into buf,
// growing it if needed, and returns the frame.
func putFrame(buf, record []byte) []byte {
	need := frameHdrLen + len(record)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	frame := buf[:need]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(record)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(record, castagnoli))
	copy(frame[frameHdrLen:], record)
	return frame
}

// checkFrame validates one whole frame as read back from disk; it
// returns what is wrong with it, or "" when it is intact.
func checkFrame(frame []byte) string {
	if int(binary.BigEndian.Uint32(frame[0:4])) != len(frame)-frameHdrLen {
		return "frame length mismatch"
	}
	if crc32.Checksum(frame[frameHdrLen:], castagnoli) != binary.BigEndian.Uint32(frame[4:8]) {
		return "checksum mismatch"
	}
	return ""
}

func (st *diskStream) lastSeg() *segment {
	if len(st.segs) == 0 {
		return nil
	}
	return st.segs[len(st.segs)-1]
}

// createSegment creates the segment file at path and writes its header,
// returning the append handle.
func createSegment(fsys FileSystem, path string, firstSeq uint64) (File, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	hdr := segmentHeader(firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func segmentHeader(firstSeq uint64) [segHeaderLen]byte {
	var hdr [segHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], segMagic)
	binary.BigEndian.PutUint32(hdr[4:8], segVersion)
	binary.BigEndian.PutUint64(hdr[8:16], firstSeq)
	return hdr
}

func (st *diskStream) rollLocked() (*segment, error) {
	idx := 0
	if last := st.lastSeg(); last != nil {
		idx = last.index + 1
	}
	path := segPath(st.dir, st.name, idx)
	f, err := createSegment(st.opts.FS, path, st.next)
	if err != nil {
		return nil, err
	}
	if st.active != nil {
		if err := st.selfSyncLocked(); err != nil {
			f.Close()
			return nil, err
		}
		st.active.Close()
	}
	st.active = f
	seg := &segment{index: idx, path: path, firstSeq: st.next, size: segHeaderLen}
	st.segs = append(st.segs, seg)
	return seg, nil
}

func (st *diskStream) Read(seq uint64) ([]byte, error) {
	rb, err := st.ReadBuf(seq)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, len(rb.Bytes()))
	copy(payload, rb.Bytes())
	rb.Release()
	return payload, nil
}

// ReadBuf is the zero-copy read path: the whole frame lands in a pooled
// buffer with a single positioned read against the segment's cached
// handle, and the returned view aliases that buffer. The caller must
// Release; Read wraps this with a copy-out for callers that want an
// owned slice.
func (st *diskStream) ReadBuf(seq uint64) (*RecBuf, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if seq < st.base || seq >= st.next {
		return nil, ErrNotFound
	}
	seg := st.findSeg(seq)
	if seg == nil {
		return nil, ErrNotFound
	}
	// The frame span is implied by consecutive offsets (or the segment
	// size for the last record), so header + payload arrive in one pread
	// instead of the former open/pread-header/pread-payload/close per
	// record.
	i := seq - seg.firstSeq
	off := seg.offsets[i]
	end := seg.size
	if int(i)+1 < len(seg.offsets) {
		end = seg.offsets[i+1]
	}
	f, err := seg.reader(st.opts.FS)
	if err != nil {
		return nil, err
	}
	rb := newRecBuf(int(end - off))
	if _, err := f.ReadAt(rb.b, off); err != nil {
		rb.Release()
		return nil, fmt.Errorf("%w: %s seq %d: %v", ErrCorrupt, seg.path, seq, err)
	}
	if what := checkFrame(rb.b); what != "" {
		rb.Release()
		return nil, fmt.Errorf("%w: %s seq %d: %s", ErrCorrupt, seg.path, seq, what)
	}
	rb.off = frameHdrLen
	return rb, nil
}

func (st *diskStream) findSeg(seq uint64) *segment {
	i := sort.Search(len(st.segs), func(i int) bool { return st.segs[i].lastSeq() > seq })
	if i == len(st.segs) || seq < st.segs[i].firstSeq {
		return nil
	}
	return st.segs[i]
}

func (st *diskStream) Base() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.base
}

func (st *diskStream) Len() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.next
}

// Iterate walks [from, Len-at-start) in order. A Truncate racing the
// iteration may purge records ahead of the cursor; those are skipped —
// the iteration reflects records live at the moment each is read — not
// reported as a spurious ErrNotFound (records cannot vanish any other
// way, so a miss below the advanced base is always a concurrent purge).
func (st *diskStream) Iterate(from uint64, fn func(uint64, []byte) error) error {
	st.mu.RLock()
	base, next := st.base, st.next
	st.mu.RUnlock()
	if from < base {
		return ErrNotFound
	}
	if from > next {
		return ErrOutOfRange
	}
	for seq := from; seq < next; seq++ {
		rec, err := st.Read(seq)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				st.mu.RLock()
				b := st.base
				st.mu.RUnlock()
				if seq < b { // concurrent Truncate: jump over the purged gap
					if b >= next {
						return nil
					}
					seq = b - 1
					continue
				}
			}
			return err
		}
		if err := fn(seq, rec); err != nil {
			return err
		}
	}
	return nil
}

func (st *diskStream) Truncate(before uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if before <= st.base {
		return nil
	}
	if before > st.next {
		before = st.next
	}
	st.base = before
	// Delete segments that fall entirely below the new base, except the
	// active (last) one.
	keep := st.segs[:0]
	for i, seg := range st.segs {
		whole := seg.lastSeq() <= before
		if whole && i < len(st.segs)-1 {
			seg.closeReader()
			if err := st.opts.FS.Remove(seg.path); err != nil && !notExist(err) {
				return err
			}
			continue
		}
		keep = append(keep, seg)
	}
	st.segs = keep
	return writeBaseMeta(st.opts.FS, st.dir, st.name, st.base)
}

// TruncateTail discards records with sequence >= from. Crash-recovery
// reconciliation only (ledger.recover drops unsynced stream suffixes so
// the journal, digest, and block streams agree on one durable prefix);
// never part of normal append-only operation.
func (st *diskStream) TruncateTail(from uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if from >= st.next {
		return nil
	}
	if from < st.base {
		return fmt.Errorf("streamfs: truncate tail %s to %d below base %d", st.name, from, st.base)
	}
	// Drop whole segments past the cut, then cut within the segment
	// holding `from` (if any records there survive, the segment stays).
	for len(st.segs) > 0 {
		seg := st.segs[len(st.segs)-1]
		if seg.firstSeq < from || seg.firstSeq < st.base {
			break
		}
		if st.active != nil {
			st.active.Close()
			st.active = nil
		}
		seg.closeReader()
		if err := st.opts.FS.Remove(seg.path); err != nil && !notExist(err) {
			return err
		}
		st.segs = st.segs[:len(st.segs)-1]
	}
	if n := len(st.segs); n > 0 {
		seg := st.segs[n-1]
		if from < seg.lastSeq() {
			cut := seg.offsets[from-seg.firstSeq]
			if err := st.opts.FS.Truncate(seg.path, cut); err != nil {
				return err
			}
			seg.offsets = seg.offsets[:from-seg.firstSeq]
			seg.size = cut
		}
		if st.active == nil {
			f, err := st.opts.FS.OpenAppend(seg.path)
			if err != nil {
				return err
			}
			st.active = f
		}
	}
	st.next = from
	st.failed = nil
	return nil
}

// SetBase implements Rebaser: remove every segment and restart the
// stream at base. Segments are removed before the base meta is
// persisted, so a crash between the two leaves a consistent (if
// stale) stream — worst case the caller redoes its rebase.
func (st *diskStream) SetBase(base uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if base < st.next {
		return fmt.Errorf("streamfs: set base %s to %d below end %d", st.name, base, st.next)
	}
	if st.active != nil {
		st.active.Close()
		st.active = nil
	}
	for _, seg := range st.segs {
		seg.closeReader()
		if err := st.opts.FS.Remove(seg.path); err != nil && !notExist(err) {
			return err
		}
	}
	st.segs = nil
	st.base = base
	st.next = base
	st.unsynced = 0
	st.failed = nil
	return writeBaseMeta(st.opts.FS, st.dir, st.name, base)
}

// BeforeSelfSync implements SelfSyncer.
func (st *diskStream) BeforeSelfSync(barrier func() error) {
	st.mu.Lock()
	st.barrier = barrier
	st.mu.Unlock()
}

// selfSyncLocked is a flush nobody asked for: the SyncEvery cadence, or
// sealing a segment so that Sync only ever has the active one to cover.
func (st *diskStream) selfSyncLocked() error {
	if st.barrier != nil {
		if err := st.barrier(); err != nil {
			return err
		}
	}
	return st.active.Sync()
}

func (st *diskStream) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.active == nil {
		return nil
	}
	if err := st.active.Sync(); err != nil {
		return err
	}
	st.unsynced = 0
	return nil
}

func (st *diskStream) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, seg := range st.segs {
		seg.closeReader()
	}
	if st.active == nil {
		return nil
	}
	err := st.active.Sync()
	if cerr := st.active.Close(); err == nil {
		err = cerr
	}
	st.active = nil
	return err
}

// Base-sequence metadata, persisted so Truncate survives restarts.

func metaPath(dir, name string) string { return pathJoin(dir, name+".base") }

func writeBaseMeta(fsys FileSystem, dir, name string, base uint64) error {
	var b [12]byte
	binary.BigEndian.PutUint64(b[0:8], base)
	binary.BigEndian.PutUint32(b[8:12], crc32.Checksum(b[0:8], castagnoli))
	tmp := metaPath(dir, name) + ".tmp"
	if err := fsys.WriteFile(tmp, b[:]); err != nil {
		return err
	}
	return fsys.Rename(tmp, metaPath(dir, name))
}

func readBaseMeta(fsys FileSystem, dir, name string) (uint64, error) {
	b, err := fsys.ReadFile(metaPath(dir, name))
	if notExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(b) != 12 || crc32.Checksum(b[0:8], castagnoli) != binary.BigEndian.Uint32(b[8:12]) {
		return 0, fmt.Errorf("%w: %s", ErrCorrupt, metaPath(dir, name))
	}
	return binary.BigEndian.Uint64(b[0:8]), nil
}

package streamfs

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ledgerdb/internal/hashutil"
)

// The payload log is the disk BlobStore (DESIGN.md §4.12): one
// append-only log of payload frames in the same segment files the
// streams use,
//
//	payload.seg.NNNNNNNN : [segment header] repeated [u32 len][u32 crc32c][payload]
//
// A payload costs one appended frame, not one file. The key is never
// stored: the digest→location index lives in memory and is rebuilt on
// open by hashing every frame, so what a key returns is by construction
// what hashes to it. Durability is the caller's group flush (Sync),
// ordered before the journal streams'. Erasure rewrites the touched
// segment without the erased frames and renames it into place, so purge
// and occult still remove the bytes from disk, not just from the index.
const (
	payloadStream = "payload"
	// payloadSegmentSize is the roll-over size. It bounds what one
	// erasure rewrites (and buffers), which is why it is smaller than the
	// streams' 64 MiB default.
	payloadSegmentSize = 16 << 20
	// payloadTmp is the erasure rewrite's staging file. Delete runs under
	// the store mutex, so one name is enough; a leftover is removed on
	// open.
	payloadTmp = "payload.tmp"
)

// ErrBlobLayout is returned by OpenDiskBlobs on a directory written by
// the former file-per-payload store (dir/<2 hex>/<digest>).
var ErrBlobLayout = errors.New("streamfs: unsupported blob directory layout")

// payloadLoc is one index entry's value: 12 bytes beside the 32-byte
// digest that keys it.
type payloadLoc struct {
	seg uint32 // segment.index
	off uint32 // frame offset in the segment; segments stay far below 4 GiB
	n   uint32 // payload length
}

type payloadLog struct {
	dir     string
	fsys    FileSystem
	segSize int64

	// mu guards everything below it. Put, Delete and Close write-lock;
	// Get read-locks across its positioned read, so an erasure can never
	// swap a segment out from under it.
	mu       sync.RWMutex
	index    map[hashutil.Digest]payloadLoc
	segs     []*segment // ascending index; only the last one takes appends
	active   File       // append handle on the last segment, nil if none
	written  uint64     // Puts that appended a frame
	failed   error      // latched unrecoverable write error (see diskStream.failed)
	frameBuf []byte
	closed   bool

	// syncMu is held across the group fsync, which runs outside mu so
	// that admission's Puts do not queue behind the disk. It is always
	// taken after mu. Closing the append handle takes it too, so a handle
	// is never closed under an fsync in flight.
	syncMu sync.Mutex
	synced uint64 // value of written covered by the last successful Sync
}

// OpenDiskBlobs opens (creating if needed) the payload log in dir. A
// torn tail frame from a crash mid-Put is truncated away, exactly as for
// streams; interior damage fails the open.
func OpenDiskBlobs(dir string) (BlobStore, error) {
	return OpenDiskBlobsOn(OSFileSystem(), dir, payloadSegmentSize)
}

// OpenDiskBlobsOn is the test seam behind OpenDiskBlobs, not a tuning
// knob: crash tests use it to run the real log over a faultfs image with
// segments small enough to roll and to be emptied. segmentSize may only
// shrink the production constant (frame offsets are 32-bit).
func OpenDiskBlobsOn(fsys FileSystem, dir string, segmentSize int64) (BlobStore, error) {
	if segmentSize <= 0 || segmentSize > payloadSegmentSize {
		return nil, fmt.Errorf("streamfs: payload segment size %d outside (0, %d]", segmentSize, payloadSegmentSize)
	}
	s, err := openPayloadLog(fsys, dir, segmentSize)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func openPayloadLog(fsys FileSystem, dir string, segmentSize int64) (*payloadLog, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("streamfs: open %s: %w", dir, err)
	}
	old, err := fsys.Glob(pathJoin(dir, "[0-9a-f][0-9a-f]", "*"))
	if err != nil {
		return nil, err
	}
	if len(old) > 0 {
		return nil, fmt.Errorf("%w: %s holds the file-per-payload tree (<2 hex>/<digest>, e.g. %s), which this version does not read; re-ingest into an empty directory",
			ErrBlobLayout, dir, old[0])
	}
	// A crash inside an erasure rewrite leaves its staging file; the
	// segment it was replacing is intact, so the erasure simply has not
	// happened (the ledger's roll-forward runs it again).
	if err := fsys.Remove(pathJoin(dir, payloadTmp)); err != nil && !notExist(err) {
		return nil, err
	}
	paths, err := fsys.Glob(pathJoin(dir, payloadStream+".seg.*"))
	if err != nil {
		return nil, err
	}
	if paths, err = dropTornHeaderTails(fsys, paths); err != nil {
		return nil, err
	}
	s := &payloadLog{dir: dir, fsys: fsys, segSize: segmentSize, index: make(map[hashutil.Digest]payloadLoc)}
	for i, p := range paths {
		idx, err := strconv.Atoi(strings.TrimPrefix(pathBase(p), payloadStream+".seg."))
		if err != nil {
			return nil, fmt.Errorf("streamfs: stray segment file %s", p)
		}
		seg, err := scanSegment(fsys, p, idx, i == len(paths)-1, s.indexFrame)
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	if last := s.lastSeg(); last != nil {
		if s.active, err = fsys.OpenAppend(last.path); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// indexFrame is scanSegment's visitor. Keys are derived, not read: each
// frame is hashed as it passes through walkFrames' bounded buffer.
func (s *payloadLog) indexFrame(seg *segment, off int64, frame []byte) {
	key := hashutil.Sum(frame[frameHdrLen:])
	if _, dup := s.index[key]; !dup {
		s.index[key] = payloadLoc{seg: uint32(seg.index), off: uint32(off), n: uint32(len(frame) - frameHdrLen)}
	}
}

func (s *payloadLog) lastSeg() *segment {
	if len(s.segs) == 0 {
		return nil
	}
	return s.segs[len(s.segs)-1]
}

// usableLocked reports why the store cannot take the operation, if so.
func (s *payloadLog) usableLocked() error {
	if s.closed {
		return ErrClosed
	}
	return s.failed
}

func (s *payloadLog) Put(key hashutil.Digest, data []byte) error {
	if len(data) > MaxRecordSize {
		return ErrTooLarge
	}
	// The index is rebuilt from content, so a payload filed under any
	// other key would be unreachable after the next open.
	if hashutil.Sum(data) != key {
		return fmt.Errorf("%w: %s", ErrBlobKey, key.Short())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if _, ok := s.index[key]; ok {
		return nil // content-addressed: already present
	}
	seg := s.lastSeg()
	if s.active == nil || seg.size >= s.segSize {
		var err error
		if seg, err = s.rollLocked(); err != nil {
			return err
		}
	}
	frame := putFrame(s.frameBuf, data)
	s.frameBuf = frame
	if cap(s.frameBuf) > maxPooledRecBuf {
		s.frameBuf = nil // don't let one huge payload pin its frame forever
	}
	if err, terr := writeFrame(s.active, frame, seg.size); err != nil {
		// As in diskStream.Append: the partial frame is cut off again, or
		// everything is refused until a reopen re-scans the tail.
		if terr != nil {
			s.failed = fmt.Errorf("streamfs: put payload: %w (rollback failed: %v; store needs reopen)", err, terr)
			return s.failed
		}
		return fmt.Errorf("streamfs: put payload: %w", err)
	}
	s.index[key] = payloadLoc{seg: uint32(seg.index), off: uint32(seg.size), n: uint32(len(data))}
	seg.size += int64(len(frame))
	s.written++
	return nil
}

// rollLocked seals the active segment (flushed, so that Sync only ever
// has the newest segment to cover) and starts the next one.
func (s *payloadLog) rollLocked() (*segment, error) {
	idx := 0
	if last := s.lastSeg(); last != nil {
		idx = last.index + 1
	}
	path := segPath(s.dir, payloadStream, idx)
	f, err := createSegment(s.fsys, path, 0)
	if err != nil {
		return nil, err
	}
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			f.Close()
			s.fsys.Remove(path)
			return nil, err
		}
		s.closeActiveLocked()
	}
	s.active = f
	seg := &segment{index: idx, path: path, size: segHeaderLen}
	s.segs = append(s.segs, seg)
	return seg, nil
}

func (s *payloadLog) closeActiveLocked() {
	if s.active == nil {
		return
	}
	s.syncMu.Lock()
	s.active.Close()
	s.syncMu.Unlock()
	s.active = nil
}

func (s *payloadLog) Get(key hashutil.Digest) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	loc, ok := s.index[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrBlobNotFound, key.Short())
	}
	return s.readLocked(loc)
}

// readLocked returns the payload at loc after checking its frame: one
// positioned read against the segment's cached handle.
func (s *payloadLog) readLocked(loc payloadLoc) ([]byte, error) {
	seg := s.segByIndex(loc.seg)
	f, err := seg.reader(s.fsys)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, frameHdrLen+int(loc.n))
	if _, err := f.ReadAt(frame, int64(loc.off)); err != nil {
		return nil, fmt.Errorf("%w: %s offset %d: %v", ErrCorrupt, seg.path, loc.off, err)
	}
	if what := checkFrame(frame); what != "" {
		return nil, fmt.Errorf("%w: %s offset %d: %s", ErrCorrupt, seg.path, loc.off, what)
	}
	return frame[frameHdrLen:], nil
}

// segByIndex resolves an index entry's segment number; every entry names
// a live segment.
func (s *payloadLog) segByIndex(idx uint32) *segment {
	i, _ := slices.BinarySearchFunc(s.segs, int(idx), func(g *segment, idx int) int { return g.index - idx })
	return s.segs[i]
}

func (s *payloadLog) Delete(keys ...hashutil.Digest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	drop := make(map[uint32]map[hashutil.Digest]bool) // by segment number
	for _, key := range keys {
		if loc, ok := s.index[key]; ok {
			if drop[loc.seg] == nil {
				drop[loc.seg] = make(map[hashutil.Digest]bool)
			}
			drop[loc.seg][key] = true
		}
	}
	for _, seg := range slices.Clone(s.segs) { // eraseLocked may remove seg from s.segs
		if d := drop[uint32(seg.index)]; d != nil {
			if err := s.eraseLocked(seg, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// eraseLocked rewrites seg without the frames whose derived key is in
// drop (keys the index places in seg): survivors are staged in a flushed
// temp file that is renamed over the segment, so a crash leaves either
// the old segment (erasure not started; the caller's roll-forward repeats
// it) or the new one. A segment left with no frame is removed. The
// in-memory state changes only after the file system did.
func (s *payloadLog) eraseLocked(seg *segment, drop map[hashutil.Digest]bool) error {
	f, total, _, err := openSegment(s.fsys, seg.path)
	if err != nil {
		return err
	}
	defer f.Close()
	type moved struct {
		key hashutil.Digest
		loc payloadLoc
	}
	var (
		kept []moved
		hdr  = segmentHeader(0)
		out  = append(make([]byte, 0, seg.size), hdr[:]...)
	)
	end, torn, err := walkFrames(f, total, func(_ int64, frame []byte) error {
		key := hashutil.Sum(frame[frameHdrLen:])
		if drop[key] {
			return nil
		}
		kept = append(kept, moved{key, payloadLoc{seg: uint32(seg.index), off: uint32(len(out)), n: uint32(len(frame) - frameHdrLen)}})
		out = append(out, frame...)
		return nil
	})
	if err != nil {
		return err
	}
	if torn {
		return fmt.Errorf("%w: %s at offset %d (erasure rewrite)", ErrCorrupt, seg.path, end)
	}

	// From here the old file's handles must go: after the rename they
	// would name an unlinked inode that still holds the erased bytes, and
	// appends through the old handle would be lost.
	if seg == s.lastSeg() {
		s.closeActiveLocked()
	}
	if len(kept) == 0 {
		if err := s.fsys.Remove(seg.path); err != nil && !notExist(err) {
			return err
		}
		seg.closeReader()
		s.segs = slices.DeleteFunc(s.segs, func(g *segment) bool { return g == seg })
	} else {
		tmp := pathJoin(s.dir, payloadTmp)
		if err := s.fsys.WriteFile(tmp, out); err != nil {
			s.fsys.Remove(tmp)
			return err
		}
		if err := s.fsys.Rename(tmp, seg.path); err != nil {
			return err
		}
		seg.closeReader()
		seg.size = int64(len(out))
		for _, m := range kept {
			s.index[m.key] = m.loc
		}
	}
	for key := range drop {
		delete(s.index, key)
	}
	if last := s.lastSeg(); s.active == nil && last != nil && last.size < s.segSize {
		// Keep appending to the (rewritten) tail rather than starting a
		// segment per erasure. On failure the next Put rolls instead.
		s.active, _ = s.fsys.OpenAppend(last.path)
	}
	return nil
}

// Sync flushes every frame appended so far. Only the active segment can
// hold unflushed frames (rollLocked flushes what it seals, an erasure
// rewrite is flushed before its rename), and the fsync itself runs
// outside mu: frames appended meanwhile are simply covered or not, and
// the next Sync picks them up.
func (s *payloadLog) Sync() error {
	s.mu.RLock()
	err := s.usableLocked()
	f, written := s.active, s.written
	s.syncMu.Lock()
	s.mu.RUnlock()
	defer s.syncMu.Unlock()
	if err != nil {
		return err
	}
	if f == nil || s.synced >= written {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("streamfs: sync payload log: %w", err)
	}
	s.synced = written
	return nil
}

// Close flushes and releases the file handles. The BlobStore interface
// has no Close (engines never close their stores); tests that reopen a
// directory in-process reach it through io.Closer.
func (s *payloadLog) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, seg := range s.segs {
		seg.closeReader()
	}
	if s.active == nil {
		return nil
	}
	err := s.active.Sync()
	s.closeActiveLocked()
	return err
}

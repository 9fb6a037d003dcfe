// Package blobstore is the tiered storage under a depot's durable
// state (DESIGN.md §14, §15), shared by the session spool and the
// content cache. A store maps a caller's key to one CRC-framed blob
// (the wire chunk framing) held in memory, under a byte budget, or in
// an optional directory under its own budget. One recency order spans
// both tiers: memory overflow spills the coldest memory blob, or evicts
// it without a directory, and disk overflow evicts the coldest disk
// blob. Budgets count payload bytes.
//
// A spilled blob is written to a .tmp file and renamed into place as
// <key>-<payload length hex><ext>; each caller names its own extension,
// so two stores may share a directory. The length in the name catches
// truncation at a frame boundary and the frame CRCs catch flipped bits:
// every read, at restart or at serve time, reports damage as
// wire.ErrChecksum.
//
// The store takes no lock: each caller calls it under its own mutex.
// Put returns the keys it evicted rather than calling back, and a
// Reader from Open captures the blob's bytes or file, so it is read
// after the lock is released.
package blobstore

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/netlogistics/lsl/internal/wire"
)

// tmpExt suffixes spills not yet renamed into place:
// <blob file name>.<random>.tmp.
const tmpExt = ".tmp"

// ErrTooLarge rejects a blob bigger than every tier's budget.
var ErrTooLarge = errors.New("blobstore: blob exceeds the store's budgets")

// ErrNotHeld reports an Open of a key the store does not hold.
var ErrNotHeld = errors.New("blobstore: key not held")

// Key is what callers index blobs by. String must be a valid file-name
// stem, and the parse function given to New must invert it.
type Key interface {
	comparable
	String() string
}

// blob is one stored payload: frames holds it while it sits in memory,
// path is set once it has spilled to disk.
type blob[K Key] struct {
	key     K
	payload int64
	frames  []byte
	path    string
}

// Store is a two-tier blob store. See the package comment for its
// locking contract.
type Store[K Key] struct {
	dir, ext          string
	memCap, diskCap   int64
	memUsed, diskUsed int64
	blobs             map[K]*list.Element // of *blob[K]
	lru               *list.List          // front = most recently used
	spilled, diskOpen int64
	evicted           []K // Put's result, reused across calls
}

// Recovery reports what New's re-index of the directory found.
type Recovery[K Key] struct {
	Keys    []K // blobs re-indexed and still held, coldest first
	Evicted int // blobs re-indexed, then evicted to fit the disk budget
	Dropped int // .tmp leftovers and torn, damaged or unparseable blob files, deleted
}

// Stats is a snapshot of a store's occupancy and tier traffic.
type Stats struct {
	MemBytes, DiskBytes int64 // payload bytes held per tier
	Blobs               int
	Spilled             int64 // blobs moved from memory to disk
	DiskOpens           int64 // disk blobs opened for reading
}

// New builds a store over memBytes of memory. With a directory it adds
// a disk tier of diskBytes there, spilling to files ending in ext, and
// re-indexes the blobs a previous process left: each such file whose
// name parse accepts and whose frames verify to the length in its name
// comes back, oldest-modified coldest; the rest, and this store's .tmp
// leftovers, are deleted and counted. Files of any other name are left
// alone.
func New[K Key](dir, ext string, memBytes, diskBytes int64, parse func(string) (K, bool)) (*Store[K], Recovery[K], error) {
	s := &Store[K]{
		memCap: memBytes,
		blobs:  make(map[K]*list.Element),
		lru:    list.New(),
	}
	if dir == "" {
		return s, Recovery[K]{}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery[K]{}, fmt.Errorf("blobstore: %w", err)
	}
	s.dir, s.ext, s.diskCap = dir, ext, diskBytes
	rec, err := s.reindex(parse)
	return s, rec, err
}

// Put stores frames — a CRC-framed payload the store now owns — under
// key, replacing any blob already there, as the most recently used
// blob, then restores both budgets. It returns the keys evicted to do
// so, valid until the next call.
func (s *Store[K]) Put(key K, frames []byte) ([]K, error) {
	n, _, err := walk(frames, -1)
	if err != nil {
		return nil, err
	}
	if n > s.MaxPayload() {
		return nil, ErrTooLarge
	}
	s.Remove(key)
	s.blobs[key] = s.lru.PushFront(&blob[K]{key: key, payload: n, frames: frames})
	s.memUsed += n
	s.evicted = s.evicted[:0]
	s.rebalance()
	return s.evicted, nil
}

// MaxPayload is the largest payload Put accepts: the memory budget, or
// the disk budget when that is larger (the blob spills at once). It
// depends only on New's arguments, so it needs no lock.
func (s *Store[K]) MaxPayload() int64 {
	if s.dir != "" {
		return max(s.memCap, s.diskCap)
	}
	return s.memCap
}

// rebalance restores the budgets, memory first, recording evictions in
// s.evicted. A tier over budget holds at least one blob.
func (s *Store[K]) rebalance() {
	for s.memUsed > s.memCap || s.dir != "" && s.diskUsed > s.diskCap {
		mem := s.memUsed > s.memCap
		el := s.coldest(mem)
		if !mem || s.dir == "" || s.spill(el.Value.(*blob[K])) != nil {
			s.evict(el)
		}
	}
}

// coldest returns the least recently used blob of one tier.
func (s *Store[K]) coldest(memory bool) *list.Element {
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		if (el.Value.(*blob[K]).path == "") == memory {
			return el
		}
	}
	return nil
}

// spill moves a memory blob to disk by tmp write and rename. On
// failure the blob stays in memory and the caller evicts it.
func (s *Store[K]) spill(b *blob[K]) error {
	name := fmt.Sprintf("%s-%x%s", b.key.String(), b.payload, s.ext)
	tmp, err := os.CreateTemp(s.dir, name+".*"+tmpExt)
	if err != nil {
		return err
	}
	_, err = tmp.Write(b.frames)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	path := filepath.Join(s.dir, name)
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	b.frames, b.path = nil, path
	s.memUsed -= b.payload
	s.diskUsed += b.payload
	s.spilled++
	return nil
}

func (s *Store[K]) evict(el *list.Element) {
	s.evicted = append(s.evicted, el.Value.(*blob[K]).key)
	s.drop(el)
}

// drop removes a blob from the index, its tier and the disk.
func (s *Store[K]) drop(el *list.Element) {
	b := el.Value.(*blob[K])
	s.lru.Remove(el)
	delete(s.blobs, b.key)
	if b.path == "" {
		s.memUsed -= b.payload
	} else {
		s.diskUsed -= b.payload
		os.Remove(b.path)
	}
}

// Remove deletes the blob under key, reporting whether there was one.
func (s *Store[K]) Remove(key K) bool {
	el, ok := s.blobs[key]
	if ok {
		s.drop(el)
	}
	return ok
}

// Touch makes the blob under key the most recently used.
func (s *Store[K]) Touch(key K) {
	if el, ok := s.blobs[key]; ok {
		s.lru.MoveToFront(el)
	}
}

// Len reports the payload length of the blob under key.
func (s *Store[K]) Len(key K) (int64, bool) {
	el, ok := s.blobs[key]
	if !ok {
		return 0, false
	}
	return el.Value.(*blob[K]).payload, true
}

// Stats returns the store's occupancy and traffic.
func (s *Store[K]) Stats() Stats {
	return Stats{MemBytes: s.memUsed, DiskBytes: s.diskUsed, Blobs: len(s.blobs),
		Spilled: s.spilled, DiskOpens: s.diskOpen}
}

// Open returns a verifying reader over the blob's payload without
// changing its recency. A memory blob's bytes, or a disk blob's open
// file, are captured now, so the read survives the blob being spilled
// or evicted after the caller's lock is released.
func (s *Store[K]) Open(key K) (*Reader, error) {
	el, ok := s.blobs[key]
	if !ok {
		return nil, ErrNotHeld
	}
	b := el.Value.(*blob[K])
	r := &Reader{left: b.payload}
	if b.path == "" {
		r.mem.Reset(b.frames)
		r.src = &r.mem
		return r, nil
	}
	f, err := os.Open(b.path)
	if err != nil {
		return nil, err
	}
	s.diskOpen++
	r.src = f
	return r, nil
}

// Tamper flips the stored byte holding payload offset off, in memory
// or on disk, the way decaying storage would; the next read of that
// frame fails its CRC. Reports false when the blob or offset is not
// held. Fault-injection hook for tests and experiments.
func (s *Store[K]) Tamper(key K, off int64) bool {
	el, ok := s.blobs[key]
	if !ok {
		return false
	}
	b := el.Value.(*blob[K])
	data, err := b.frames, error(nil)
	if b.path != "" {
		data, err = os.ReadFile(b.path)
	}
	if _, pos, werr := walk(data, off); err == nil && werr == nil && pos >= 0 {
		data[pos] ^= 0xFF
		return b.path == "" || os.WriteFile(b.path, data, 0o644) == nil
	}
	return false
}

// walk checks a frame sequence's headers and returns the payload
// length it carries and the index of the byte holding payload offset
// off (-1 when off is outside the payload).
func walk(frames []byte, off int64) (payload int64, pos int, err error) {
	pos = -1
	for at := 0; at < len(frames); {
		l := 0
		if at+wire.FrameHeaderLen <= len(frames) {
			l = int(binary.BigEndian.Uint32(frames[at:]))
		}
		if l == 0 || l > wire.MaxFramePayload || at+wire.FrameHeaderLen+l > len(frames) {
			return 0, -1, fmt.Errorf("%w: malformed frame at byte %d", wire.ErrChecksum, at)
		}
		if off >= payload && off < payload+int64(l) {
			pos = at + wire.FrameHeaderLen + int(off-payload)
		}
		payload += int64(l)
		at += wire.FrameHeaderLen + l
	}
	return payload, pos, nil
}

// reindex rebuilds the index from the directory, then restores the
// disk budget. Called once from New, before the store is shared.
func (s *Store[K]) reindex(parse func(string) (K, bool)) (Recovery[K], error) {
	var rec Recovery[K]
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return rec, fmt.Errorf("blobstore: re-index %s: %w", s.dir, err)
	}
	type found struct {
		b   *blob[K]
		mod time.Time
	}
	var fs []found
	for _, de := range des {
		name := de.Name()
		path := filepath.Join(s.dir, name)
		if de.IsDir() || !s.owns(name) {
			continue // not ours
		}
		key, n, ok := parseName(name, s.ext, parse)
		info, err := de.Info()
		if ok && err == nil {
			var f *os.File
			if f, err = os.Open(path); err == nil {
				err = (&Reader{src: f, left: n}).Verify()
				f.Close()
			}
		}
		if !ok || err != nil {
			// A tmp leftover was never committed; a blob file that does
			// not parse or verify must not be resurrected.
			os.Remove(path)
			rec.Dropped++
			continue
		}
		fs = append(fs, found{&blob[K]{key: key, payload: n, path: path}, info.ModTime()})
	}
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].mod.Before(fs[j].mod) })
	for _, f := range fs {
		if _, dup := s.blobs[f.b.key]; dup {
			os.Remove(f.b.path)
			rec.Dropped++
			continue
		}
		s.blobs[f.b.key] = s.lru.PushFront(f.b)
		s.diskUsed += f.b.payload
	}
	s.evicted = s.evicted[:0]
	s.rebalance()
	rec.Evicted = len(s.evicted)
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		rec.Keys = append(rec.Keys, el.Value.(*blob[K]).key)
	}
	return rec, nil
}

// owns reports whether a directory entry is this store's: a blob file
// ending in its extension, or a spill of one left before its rename.
func (s *Store[K]) owns(name string) bool {
	if base, tmp := strings.CutSuffix(name, tmpExt); tmp {
		i := strings.LastIndexByte(base, '.')
		return i >= 0 && strings.HasSuffix(base[:i], s.ext)
	}
	return strings.HasSuffix(name, s.ext)
}

// parseName splits "<key>-<payload length hex><ext>" and parses the
// key, accepting only the canonical spelling a spill would have written.
func parseName[K Key](name, ext string, parse func(string) (K, bool)) (key K, n int64, ok bool) {
	base, found := strings.CutSuffix(name, ext)
	i := strings.LastIndexByte(base, '-')
	if !found || i < 0 {
		return key, 0, false
	}
	n, err := strconv.ParseInt(base[i+1:], 16, 64)
	if err != nil || n < 0 || strconv.FormatInt(n, 16) != base[i+1:] {
		return key, 0, false
	}
	key, ok = parse(base[:i])
	return key, n, ok && key.String() == base[:i]
}

// Reader streams one blob's payload through the CRC frame verifier. A
// flipped bit, a torn frame, or a payload shorter or longer than the
// index records is reported as wire.ErrChecksum.
type Reader struct {
	mem  bytes.Reader
	src  io.ReadSeeker // &mem, or the blob's file
	fr   *wire.FrameReader
	left int64 // payload bytes still owed by the index
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.fr == nil {
		r.fr = wire.NewFrameReader(r.src)
	}
	// Past the indexed length p is empty, so a clean end reads io.EOF
	// and anything more is damage.
	n, err := r.fr.Read(p[:min(int64(len(p)), r.left)])
	r.left -= int64(n)
	if err == io.EOF && r.left > 0 || errors.Is(err, io.ErrUnexpectedEOF) || err == nil && n == 0 && r.left == 0 {
		err = fmt.Errorf("%w: stored blob does not match its indexed length", wire.ErrChecksum)
	}
	return n, err
}

// Verify reads the whole blob through the verifier, then rewinds the
// reader, so a caller that cannot signal damage once it has begun to
// answer can refuse a damaged blob instead.
func (r *Reader) Verify() error {
	left := r.left
	if _, err := io.Copy(io.Discard, r); err != nil {
		return err
	}
	r.left, r.fr = left, nil
	_, err := r.src.Seek(0, io.SeekStart)
	return err
}

// Close releases the disk file, if any.
func (r *Reader) Close() error {
	if f, ok := r.src.(*os.File); ok {
		return f.Close()
	}
	return nil
}

// Package wal implements the append-only write-ahead log underneath the
// durable store (internal/durable).
//
// # Format
//
// A log file starts with an 8-byte header — the magic "GRWAL" followed by
// a format-version byte and two zero bytes — and continues with
// length-prefixed, checksummed records:
//
//	[4B little-endian payload length][4B CRC32-Castagnoli of payload][payload]
//
// The payload is opaque to this package (internal/durable encodes one
// store mutation per record). A record is valid only if its full frame is
// present and the checksum matches; Recover scans the file front to back
// and reports the byte offset of the first invalid frame, so a tail torn
// by a crash — a partial header, a partial payload, or a corrupt checksum
// — is detected and truncated rather than failing the open.
//
// # Group commit
//
// Writer batches concurrent appends: callers enqueue frames into a shared
// buffer and a single flusher goroutine writes and fdatasyncs the whole
// pending batch with one syscall pair, then wakes every caller in the
// batch. Under concurrent load each fsync therefore amortises over many
// records ("group commit"), while a lone writer still gets one fsync per
// record. Append returns only after the record is durable.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"graphitti/internal/faultfs"
	"graphitti/internal/trace"
)

// Magic starts every log file, followed by the format version byte.
var Magic = [8]byte{'G', 'R', 'W', 'A', 'L', 1, 0, 0}

// HeaderSize is the length of the file header.
const HeaderSize = 8

// frameHeaderSize is the per-record prefix: length + CRC.
const frameHeaderSize = 8

// MaxRecordSize bounds a single payload; a length prefix beyond it is
// treated as torn/corrupt rather than allocated.
const MaxRecordSize = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by appends to a closed writer.
var ErrClosed = errors.New("wal: writer closed")

// ErrBadHeader is returned when a log file exists but does not start with
// the magic (it is some other file, or a crash tore even the header).
var ErrBadHeader = errors.New("wal: bad file header")

// Stats counts writer activity since open.
type Stats struct {
	// Records appended (durably acknowledged or pending).
	Records uint64
	// Bytes of frames appended, excluding the file header.
	Bytes uint64
	// Flushes is the number of write+fdatasync batches — the fsync count.
	// Records / Flushes is the group-commit amortisation factor.
	Flushes uint64
	// MaxBatch is the largest number of records covered by one flush.
	MaxBatch uint64
	// Size is the current file size, header included.
	Size int64
}

// Writer is an append-only log writer with group commit. It is safe for
// concurrent use.
type Writer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	f       *os.File
	nosync  bool
	inject  faultfs.Injector
	closed  bool
	err     error // sticky I/O error; fails all subsequent appends
	buf     []byte
	waiters []waiter
	size    int64 // durable+pending file size
	stats   Stats
	done    chan struct{}
	m       *walMetrics
	shard   string // metrics/batch-ID label
}

// waiter is one enqueued record's rider: the ack channel plus the
// caller's span (nil when the append is untraced). The flusher attaches
// a finished "wal.flush" child to sp — carrying the batch ID every rider
// of the same fsync shares — before sending on ch, so by the time the
// caller unblocks its span tree already tells it which batch carried it.
type waiter struct {
	ch chan error
	sp *trace.Span
}

// Options tune a Writer.
type Options struct {
	// NoSync skips fdatasync; the OS may reorder or lose acknowledged
	// records on crash. For benchmarks and tests only.
	NoSync bool
	// Inject, when non-nil, is consulted before every file operation the
	// writer performs (create, write, fdatasync, truncate, directory
	// sync) and can fail it — the fault-injection hook the durable
	// layer's harness drives. Nil injects nothing.
	Inject faultfs.Injector
	// Shard labels this writer's metrics; "" means "0" (unsharded).
	Shard string
}

// Create creates a fresh log at path (truncating any existing file),
// writes the header, and returns a writer. The parent directory is
// fsynced so the new file's directory entry — and with it every record
// later acknowledged into the file — survives power loss.
func Create(path string, opts Options) (*Writer, error) {
	if err := faultfs.Check(opts.Inject, faultfs.OpCreate, path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := injectedWrite(opts.Inject, f, Magic[:]); err != nil {
		f.Close()
		return nil, err
	}
	if !opts.NoSync {
		if err := injectedSync(opts.Inject, f); err != nil {
			f.Close()
			return nil, err
		}
		if err := SyncDir(opts.Inject, filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return newWriter(f, HeaderSize, opts), nil
}

// SyncDir fsyncs a directory so renames/creates within it are durable,
// consulting inj first.
func SyncDir(inj faultfs.Injector, dir string) error {
	if err := faultfs.Check(inj, faultfs.OpDirSync, dir); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// injectedWrite writes buf through the optional injector; an injected
// torn write puts Fault.Short leading bytes into the file before the
// error, as a partially flushed block would.
func injectedWrite(inj faultfs.Injector, f *os.File, buf []byte) error {
	if inj != nil {
		if flt := inj.Decide(faultfs.OpWrite, f.Name()); flt != nil {
			if n := flt.Short; n > 0 {
				if n > len(buf) {
					n = len(buf)
				}
				_, _ = f.Write(buf[:n])
			}
			return flt.Err
		}
	}
	_, err := f.Write(buf)
	return err
}

// injectedSync fdatasyncs through the optional injector.
func injectedSync(inj faultfs.Injector, f *os.File) error {
	if err := faultfs.Check(inj, faultfs.OpSync, f.Name()); err != nil {
		return err
	}
	return fdatasync(f)
}

// OpenAt opens an existing log for appending at offset valid (typically
// the ValidSize reported by Recover), truncating anything past it — the
// torn tail of a crashed run.
func OpenAt(path string, valid int64, opts Options) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if valid < HeaderSize {
		f.Close()
		return nil, fmt.Errorf("wal: valid size %d below header size", valid)
	}
	if err := faultfs.Check(opts.Inject, faultfs.OpTruncate, path); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if !opts.NoSync {
		if err := injectedSync(opts.Inject, f); err != nil {
			f.Close()
			return nil, err
		}
	}
	return newWriter(f, valid, opts), nil
}

func newWriter(f *os.File, size int64, opts Options) *Writer {
	shard := opts.Shard
	if shard == "" {
		shard = "0"
	}
	w := &Writer{f: f, nosync: opts.NoSync, inject: opts.Inject, size: size,
		done: make(chan struct{}), m: metricsForShard(opts.Shard), shard: shard}
	w.cond = sync.NewCond(&w.mu)
	go w.flushLoop()
	return w
}

// AppendAsync enqueues one record and returns a channel that receives the
// (single) durability result. Records become durable in enqueue order;
// the caller may enqueue several records and wait once on the last.
func (w *Writer) AppendAsync(payload []byte) <-chan error {
	return w.AppendAsyncTraced(payload, nil)
}

// AppendAsyncTraced is AppendAsync with span attribution: when sp is
// non-nil, the flusher attaches a finished "wal.flush" child to it
// covering the write+fdatasync that made this record durable, tagged
// with the batch ID ("<shard>#<flush number>") and rider count shared
// by every record in the same group commit. The child is attached
// before the ack channel fires, so the caller's span tree is complete
// as soon as the append returns.
func (w *Writer) AppendAsyncTraced(payload []byte, sp *trace.Span) <-chan error {
	ch := make(chan error, 1)
	if len(payload) > MaxRecordSize {
		ch <- fmt.Errorf("wal: record of %d bytes exceeds max %d", len(payload), MaxRecordSize)
		return ch
	}
	w.mu.Lock()
	if w.closed || w.err != nil {
		err := w.err
		if err == nil {
			err = ErrClosed
		}
		w.mu.Unlock()
		ch <- err
		return ch
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	w.waiters = append(w.waiters, waiter{ch: ch, sp: sp})
	w.size += int64(frameHeaderSize + len(payload))
	w.stats.Records++
	w.stats.Bytes += uint64(frameHeaderSize + len(payload))
	size := w.size
	w.cond.Signal()
	w.mu.Unlock()
	w.m.records.Inc()
	w.m.bytes.Add(uint64(frameHeaderSize + len(payload)))
	w.m.sizeBytes.Set(size)
	return ch
}

// Append enqueues one record and blocks until it is durable (or until the
// flush fails).
func (w *Writer) Append(payload []byte) error {
	return <-w.AppendAsync(payload)
}

// flushLoop is the single flusher: it drains the pending buffer, writes
// it with one write call, fdatasyncs once, and wakes the whole batch.
//
// A flush failure is terminal for the file (the fsyncgate rule): a
// failed fdatasync may have dropped the dirty pages it covered, so a
// later write+fdatasync that succeeded would acknowledge new records
// over a silently lost tail. Once the sticky error is set, no batch —
// including ones already enqueued when the failure happened — touches
// the file again; every waiter gets the original error.
func (w *Writer) flushLoop() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for len(w.buf) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.buf) == 0 && w.closed {
			w.mu.Unlock()
			return
		}
		buf := w.buf
		waiters := w.waiters
		w.buf = nil
		w.waiters = nil
		w.stats.Flushes++
		batchID := w.shard + "#" + strconv.FormatUint(w.stats.Flushes, 10)
		if n := uint64(len(waiters)); n > w.stats.MaxBatch {
			w.stats.MaxBatch = n
		}
		err := w.err
		w.mu.Unlock()
		w.m.flushes.Inc()
		w.m.batchRecords.Observe(float64(len(waiters)))

		flushStart := time.Now()
		if err == nil {
			if werr := injectedWrite(w.inject, w.f, buf); werr != nil {
				err = werr
			} else if !w.nosync {
				start := time.Now()
				err = injectedSync(w.inject, w.f)
				w.m.fsyncSeconds.Observe(time.Since(start).Seconds())
			}
			if err != nil {
				w.mu.Lock()
				w.err = err // sticky: the log tail is now undefined
				w.mu.Unlock()
				w.m.flushErrors.Inc()
			}
		}
		flushEnd := time.Now()
		riders := strconv.Itoa(len(waiters))
		for _, wt := range waiters {
			// Attribute the shared flush to each rider's trace before the
			// ack: the rider is still blocked on wt.ch, so its span tree
			// cannot be read or finished concurrently.
			wt.sp.FinishedChild("wal.flush", flushStart, flushEnd,
				trace.Attr{Key: "batch", Value: batchID},
				trace.Attr{Key: "riders", Value: riders})
			wt.ch <- err
		}
	}
}

// Sync blocks until everything enqueued so far is durable.
func (w *Writer) Sync() error {
	return w.Append(nil) // a zero-length record is valid and cheap
}

// Close flushes pending records and closes the file.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.cond.Signal()
	w.mu.Unlock()
	<-w.done
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Err returns the writer's terminal state: the sticky I/O error if a
// flush failed (the log tail is undefined and all appends fail), ErrClosed
// after Close, or nil while healthy.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	return nil
}

// Stats returns a snapshot of the writer counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Size returns the current log size in bytes (header included, pending
// appends counted).
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

package server

import (
	"fmt"
	"io/fs"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"syscall"

	"cmpqos/internal/qos"
)

// diskOp is a kind of fakeDisk operation; a fault names the nth
// operation of one kind.
type diskOp int

const (
	opCreate diskOp = iota
	opAppend
	opRead
	opWrite
	opSync
	opTruncate
	opRename
	opRemove
	opSyncDir
	nDiskOps
)

var diskOpNames = [nDiskOps]string{"create", "append", "read", "write", "sync", "truncate", "rename", "remove", "syncdir"}

func (o diskOp) String() string { return diskOpNames[o] }

// diskFault fails the nth (from 0) operation of kind op on a path that
// ends in name, counted from when the fault joined the schedule, with
// err — and, if sticky, every later one too. A short write lands the
// first half of its bytes before it fails.
type diskFault struct {
	op     diskOp
	name   string
	n      int
	err    syscall.Errno
	short  bool
	sticky bool
	seen   int // matching operations so far
}

func (f diskFault) String() string {
	kind := f.err.Error()
	if f.short {
		kind = "short write"
	}
	return fmt.Sprintf("%s%s#%d:%s", f.op, f.name, f.n, kind)
}

// inode is one file's bytes: what a reader sees now, and what the last
// sync that landed made durable. A failed sync wedges the file: as
// Linux may after a writeback error, every later sync reports success
// and makes nothing durable.
type inode struct {
	data, synced []byte
	wedged       bool
}

// nsOp is one create, rename or remove no directory sync has covered
// yet: name set to ino (nil: removed), and from removed for a rename.
type nsOp struct {
	name, from string
	ino        *inode
}

// fakeDisk is the in-memory qos.FS of the daemon's tests: one flat
// directory, a fault schedule, and crash images that keep only what a
// real disk must keep. All of it is guarded by mu.
type fakeDisk struct {
	mu      sync.Mutex
	names   map[string]*inode // the namespace a reader sees
	durable map[string]*inode // as of the last directory sync
	pending []nsOp            // since the last directory sync
	counts  [nDiskOps]int     // operations so far, by kind
	faults  []*diskFault
	fired   int // faults fired so far
	// onOp, when set, runs before every operation, with mu held: a test
	// follows the operations and takes crash images from it.
	onOp func(op diskOp, name string)
	// syncGate, when set, holds every File.Sync until it is closed.
	syncGate chan struct{}
}

func newFakeDisk(faults ...diskFault) *fakeDisk {
	d := &fakeDisk{names: map[string]*inode{}, durable: map[string]*inode{}}
	d.schedule(faults...)
	return d
}

// schedule adds faults, each counting its operations from now on.
func (d *fakeDisk) schedule(faults ...diskFault) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range faults {
		d.faults = append(d.faults, &f)
	}
}

// holdSyncs makes every File.Sync from now on wait, mu not held, until
// release is called: a test stalls an appending request, the daemon's
// lock taken, for as long as it likes.
func (d *fakeDisk) holdSyncs() (release func()) {
	gate := make(chan struct{})
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncGate = gate
	return sync.OnceFunc(func() { close(gate) })
}

// heal clears the fault schedule.
func (d *fakeDisk) heal() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults = nil
}

// do counts one operation of kind op on name and returns its scheduled
// fault, if any. mu is held.
func (d *fakeDisk) do(op diskOp, name string) *diskFault {
	if d.onOp != nil {
		d.onOp(op, name)
	}
	d.counts[op]++
	var fired *diskFault
	for _, f := range d.faults {
		if f.op != op || !strings.HasSuffix(name, f.name) {
			continue
		}
		if f.seen == f.n || f.sticky && f.seen > f.n {
			fired = f
		}
		f.seen++
	}
	if fired != nil {
		d.fired++
	}
	return fired
}

func pathErr(op diskOp, name string, err error) error {
	return &fs.PathError{Op: op.String(), Path: name, Err: err}
}

func (d *fakeDisk) setName(name, from string, ino *inode) {
	if ino == nil {
		delete(d.names, name)
	} else {
		d.names[name] = ino
	}
	if from != "" {
		delete(d.names, from)
	}
	d.pending = append(d.pending, nsOp{name: name, from: from, ino: ino})
}

func (d *fakeDisk) Create(name string) (qos.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f := d.do(opCreate, name); f != nil {
		return nil, pathErr(opCreate, name, f.err)
	}
	ino := d.names[name]
	if ino == nil {
		ino = &inode{}
		d.setName(name, "", ino)
	}
	ino.data = nil
	return &fakeFile{d: d, ino: ino, name: name}, nil
}

func (d *fakeDisk) Append(name string) (qos.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f := d.do(opAppend, name); f != nil {
		return nil, pathErr(opAppend, name, f.err)
	}
	ino := d.names[name]
	if ino == nil {
		return nil, pathErr(opAppend, name, fs.ErrNotExist)
	}
	return &fakeFile{d: d, ino: ino, name: name}, nil
}

func (d *fakeDisk) ReadFile(name string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f := d.do(opRead, name); f != nil {
		return nil, pathErr(opRead, name, f.err)
	}
	ino := d.names[name]
	if ino == nil {
		return nil, pathErr(opRead, name, fs.ErrNotExist)
	}
	return slices.Clone(ino.data), nil
}

func (d *fakeDisk) Truncate(name string, size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f := d.do(opTruncate, name); f != nil {
		return pathErr(opTruncate, name, f.err)
	}
	ino := d.names[name]
	if ino == nil {
		return pathErr(opTruncate, name, fs.ErrNotExist)
	}
	if size < int64(len(ino.data)) {
		ino.data = ino.data[:size]
	}
	return nil
}

func (d *fakeDisk) Rename(from, to string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f := d.do(opRename, from); f != nil {
		return pathErr(opRename, from, f.err)
	}
	ino := d.names[from]
	if ino == nil {
		return pathErr(opRename, from, fs.ErrNotExist)
	}
	d.setName(to, from, ino)
	return nil
}

func (d *fakeDisk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f := d.do(opRemove, name); f != nil {
		return pathErr(opRemove, name, f.err)
	}
	if d.names[name] == nil {
		return pathErr(opRemove, name, fs.ErrNotExist)
	}
	d.setName(name, "", nil)
	return nil
}

func (d *fakeDisk) SyncDir(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f := d.do(opSyncDir, dir); f != nil {
		return pathErr(opSyncDir, dir, f.err)
	}
	d.durable = applyNS(d.durable, d.pending, func(int) bool { return true })
	d.pending = nil
	return nil
}

// applyNS returns base with each op of ops that lands applied in order.
func applyNS(base map[string]*inode, ops []nsOp, lands func(i int) bool) map[string]*inode {
	m := make(map[string]*inode, len(base)+len(ops))
	for k, v := range base {
		m[k] = v
	}
	for i, op := range ops {
		if !lands(i) {
			continue
		}
		if op.ino == nil {
			delete(m, op.name)
		} else {
			m[op.name] = op.ino
		}
		if op.from != "" {
			delete(m, op.from)
		}
	}
	return m
}

// fakeFile is an open file: faults match it by the name it has now, or
// had last.
type fakeFile struct {
	d    *fakeDisk
	ino  *inode
	name string
}

func (f *fakeFile) nameNow() string {
	for name, ino := range f.d.names {
		if ino == f.ino {
			f.name = name
		}
	}
	return f.name
}

func (f *fakeFile) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if fault := f.d.do(opWrite, f.nameNow()); fault != nil {
		n := 0
		if fault.short {
			n = len(p) / 2
			f.ino.data = append(f.ino.data, p[:n]...)
		}
		return n, pathErr(opWrite, f.name, fault.err)
	}
	f.ino.data = append(f.ino.data, p...)
	return len(p), nil
}

func (f *fakeFile) Sync() error {
	f.d.mu.Lock()
	if gate := f.d.syncGate; gate != nil {
		f.d.mu.Unlock()
		<-gate
		f.d.mu.Lock()
	}
	defer f.d.mu.Unlock()
	if fault := f.d.do(opSync, f.nameNow()); fault != nil {
		f.ino.wedged = true
		return pathErr(opSync, f.name, fault.err)
	}
	if !f.ino.wedged {
		f.ino.synced = slices.Clone(f.ino.data)
	}
	return nil
}

func (f *fakeFile) Close() error { return nil }

// crashImage is the disk as a crash at one instant may leave it: the
// namespace as of the last directory sync plus the pending creates,
// renames and removes, and every file's current and durable bytes.
type crashImage struct {
	durable map[string]*inode
	pending []nsOp
}

// image copies the disk's state (mu held): files are copied so later
// writes do not reach into the image.
func (d *fakeDisk) image() crashImage {
	copies := map[*inode]*inode{}
	cp := func(ino *inode) *inode {
		if ino == nil {
			return nil
		}
		if c, ok := copies[ino]; ok {
			return c
		}
		c := &inode{data: slices.Clone(ino.data), synced: slices.Clone(ino.synced)}
		copies[ino] = c
		return c
	}
	img := crashImage{durable: map[string]*inode{}}
	for k, v := range d.durable {
		img.durable[k] = cp(v)
	}
	for _, op := range d.pending {
		img.pending = append(img.pending, nsOp{name: op.name, from: op.from, ino: cp(op.ino)})
	}
	return img
}

// The two crash models: every file keeps exactly its bytes as of its
// last successful sync, or those and a prefix of its unsynced tail.
const (
	keepSynced = iota
	keepTail
)

// models is how many crash models differ on the image: one when no
// file has an unsynced tail, so both keep the same bytes.
func (img crashImage) models() int {
	tail := func(ino *inode) bool { return ino != nil && len(ino.data) > len(ino.synced) }
	for _, ino := range img.durable {
		if tail(ino) {
			return 2
		}
	}
	for _, op := range img.pending {
		if tail(op.ino) {
			return 2
		}
	}
	return 1
}

// landings is how many namespace patterns recover checks on an image:
// every subset of up to four pending operations, else four patterns.
func (img crashImage) landings() int {
	if len(img.pending) <= 4 {
		return 1 << len(img.pending)
	}
	return 4
}

// restore builds the disk a restart finds after the crash: pending
// operation i lands when bit i of pattern is set (past four pending
// operations: all, none, the even ones or the odd ones), and each file
// keeps what model says. A kept tail is whole, or with rng, whole half
// the time and else a random prefix of itself.
func (img crashImage) restore(model, pattern int, rng *rand.Rand) *fakeDisk {
	lands := func(i int) bool { return pattern>>i&1 == 1 }
	if len(img.pending) > 4 {
		lands = func(i int) bool { return [4]bool{true, false, i%2 == 0, i%2 == 1}[pattern] }
	}
	d := newFakeDisk()
	restored := map[*inode]*inode{}
	names := applyNS(img.durable, img.pending, lands)
	order := make([]string, 0, len(names))
	for name := range names {
		order = append(order, name)
	}
	slices.Sort(order) // rng draws in a fixed order
	for _, name := range order {
		ino := names[name]
		r, ok := restored[ino]
		if !ok {
			kept := ino.synced
			if tail := len(ino.data) - len(ino.synced); model == keepTail && tail > 0 && slices.Equal(ino.data[:len(ino.synced)], ino.synced) {
				n := tail
				if rng != nil && rng.Intn(2) == 0 {
					n = rng.Intn(tail + 1)
				}
				kept = ino.data[:len(ino.synced)+n]
			}
			r = &inode{data: slices.Clone(kept), synced: slices.Clone(kept)}
			restored[ino] = r
		}
		d.names[name], d.durable[name] = r, r
	}
	return d
}

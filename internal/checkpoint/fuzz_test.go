package checkpoint

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/core"
	"github.com/coyote-sim/coyote/internal/kernels"
)

// FuzzRestoreState overwrites bytes of a good machine state — the state,
// not the file, so there is no checksum to recompute — and restores it
// into a fresh System. The restore may succeed or return an error; what it
// may not do is panic, take more than two seconds or allocate more than
// 256 MB: a checkpoint is input, and its checksum vouches only for the
// bytes, not for the writer. Two states are patched: saveMidRun's, and a
// 16-core copy-vector stopped mid-storm with requests on the uncore's
// waiting list and full MSHR tables.
func FuzzRestoreState(f *testing.F) {
	storm := saveRun(f, "copy-vector", kernels.Params{N: 49152, Cores: 16, Seed: 1}, core.DefaultConfig(16), 20000)
	var images []*Image
	for i, path := range []string{saveMidRun(f), storm} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		img, err := Decode(raw)
		if err != nil {
			f.Fatal(err)
		}
		images = append(images, img)
		// The unpatched state, then a patch in the orchestrator's header.
		f.Add(byte(i), uint32(0), []byte{})
		f.Add(byte(i), uint32(8), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
		sys, err := img.Restore(nil)
		if err != nil {
			f.Fatal(err)
		}
		if i == 1 && sys.Uncore.Waiting() == 0 {
			f.Fatal("seed premise broken: no request waits on a full MSHR table in the storm state")
		}
		var mw ckpt.Writer
		if err := sys.Mem.Checkpoint(&mw); err != nil {
			f.Fatal(err)
		}
		// Functional memory is most of the state and the least checked;
		// spread the rest of the seeds over the sections behind it.
		for at := mw.Len(); at < len(img.State); at += (len(img.State) - mw.Len()) / 8 {
			f.Add(byte(i), uint32(at), []byte{0, 0, 0, 0, 0, 1, 0, 0})
		}
		f.Add(byte(i), uint32(len(img.State)-1), []byte{2})
	}

	f.Fuzz(func(t *testing.T, sel byte, off uint32, patch []byte) {
		img := images[int(sel)%len(images)]
		state := append([]byte(nil), img.State...)
		copy(state[int(off)%len(state):], patch)

		sys, err := core.New(img.Meta.Config)
		if err != nil {
			t.Fatal(err)
		}
		sys.LoadProgram(img.Prog)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		done := make(chan string, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- fmt.Sprintf("%v\n%s", p, debug.Stack())
				}
				close(done)
			}()
			_ = sys.RestoreState(ckpt.NewReader(state))
		}()
		select {
		case p := <-done:
			if p != "" {
				t.Fatalf("RestoreState panicked: %s", p)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("RestoreState still running after 2 s")
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<20 {
			t.Fatalf("RestoreState allocated %d MB", grew>>20)
		}
	})
}

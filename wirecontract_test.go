package megaphone_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"megaphone/internal/core"
	"megaphone/internal/dataflow"
	"megaphone/internal/harness"
	"megaphone/internal/keycount"
	"megaphone/internal/nexmark"
	"megaphone/internal/plan"
)

// TestShippedGraphsCrossInBinary runs every graph the binaries ship — each
// keycount variant, and NEXMark q1–q8 in both implementations — on two
// loopback meshes under a fluid migration: every record type they exchange
// and every state type they migrate must have the binary contract, or
// building the graph panics. A megaphone graph must also have shipped bins
// across the process boundary. Then the refusals themselves: a graph that
// would move a type without the contract out of its process does not build.
func TestShippedGraphsCrossInBinary(t *testing.T) {
	type graph struct {
		name      string
		megaphone bool
		run       func(spec *dataflow.ClusterSpec, codec core.Codec) error
	}
	var graphs []graph
	for _, v := range []keycount.Variant{keycount.HashCount, keycount.KeyCount, keycount.NativeHash, keycount.NativeKey} {
		graphs = append(graphs, graph{"keycount-" + v.String(), v == keycount.HashCount || v == keycount.KeyCount,
			func(spec *dataflow.ClusterSpec, codec core.Codec) error {
				_, err := keycount.Run(keycount.RunConfig{
					Params: keycount.Params{Variant: v, LogBins: 3, Domain: 1 << 10, Preload: true, Transfer: codec},
					Config: harness.Config{
						Workers:  1,
						Rate:     20000,
						Duration: 250 * time.Millisecond,
						Strategy: plan.Fluid, Batch: 1, MigrateAt: 40 * time.Millisecond,
						Cluster: spec,
					},
				})
				return err
			}})
	}
	for q := 1; q <= 8; q++ {
		for _, impl := range []nexmark.Impl{nexmark.Native, nexmark.Megaphone} {
			graphs = append(graphs, graph{fmt.Sprintf("q%d-%v", q, impl), impl == nexmark.Megaphone,
				func(spec *dataflow.ClusterSpec, codec core.Codec) error {
					_, err := nexmark.Run(nexmark.RunConfig{
						Query:  fmt.Sprintf("q%d", q),
						Params: nexmark.Params{Impl: impl, LogBins: 3, WindowEpochs: 4, Transfer: codec},
						Gen:    nexmark.GenConfig{ActiveAuctions: 50, ActivePeople: 50, AuctionEpochs: 20},
						Config: harness.Config{
							Workers:  1,
							Rate:     20000,
							Duration: 250 * time.Millisecond,
							Strategy: plan.Fluid, Batch: 1, MigrateAt: 40 * time.Millisecond,
							Cluster: spec,
						},
					})
					return err
				}})
		}
	}

	// Four graphs at a time: each is two meshes of one worker, mostly idle
	// at this rate, so a small host still finishes all of them in seconds.
	sem := make(chan struct{}, 4)
	var all sync.WaitGroup
	for _, g := range graphs {
		specs := localClusterSpecs(t, 2)
		all.Add(1)
		go func() {
			defer all.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			codec := &binCount{Codec: core.TransferBinary}
			var wg sync.WaitGroup
			errs := make([]error, len(specs))
			for p := range specs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[p] = g.run(&specs[p], codec)
				}()
			}
			wg.Wait()
			for p, err := range errs {
				if err != nil {
					t.Errorf("%s: process %d: %v", g.name, p, err)
				}
			}
			if n := codec.bins.Load(); g.megaphone && n == 0 {
				t.Errorf("%s: no bin crossed a process", g.name)
			}
		}()
	}
	all.Wait()

	// The refusals, each a panic at build naming the operator and the type.
	type opaque struct{ N int }
	exchange := func(w *dataflow.Worker) {
		_, s := dataflow.NewInput[opaque](w, "in")
		dataflow.Connect(w.NewOp("spread", 0), s, dataflow.Exchange[opaque]{Hash: func(o opaque) uint64 { return uint64(o.N) }})
	}
	unary := func(ckpt *core.CheckpointConfig) func(w *dataflow.Worker) {
		return func(w *dataflow.Worker) {
			_, ctl := dataflow.NewInput[core.Move](w, "control")
			_, s := dataflow.NewInput[uint64](w, "in")
			core.Unary(w, core.Config{Name: "tally", Checkpoint: ckpt}, ctl, s, core.Mix64,
				func() *opaque { return new(opaque) },
				func(_ core.Time, _ uint64, st *opaque, _ *core.Notificator[uint64, opaque, uint64], _ func(uint64)) {
					st.N++
				}, nil)
		}
	}
	for _, c := range []struct {
		name  string
		mesh  bool
		build func(w *dataflow.Worker)
		want  []string
	}{
		{"exchange in a mesh", true, exchange, []string{`"spread" input 0`, "opaque"}},
		{"megaphone state in a mesh", true, unary(nil), []string{`"tally"`, "opaque"}},
		{"megaphone state with checkpoints", false, unary(&core.CheckpointConfig{Dir: t.TempDir()}), []string{`"tally"`, "opaque"}},
	} {
		var msgs []string
		if c.mesh {
			meshes := joinMeshes(t, 2)
			for _, m := range meshes {
				msgs = append(msgs, buildRefusal(m, c.build))
			}
		} else {
			msgs = append(msgs, buildRefusal(nil, c.build))
		}
		for _, msg := range msgs {
			for _, w := range c.want {
				if !strings.Contains(msg, w) {
					t.Errorf("%s: build refusal %q does not name %s", c.name, msg, w)
				}
			}
		}
	}
}

// joinMeshes joins an n-process loopback cluster inside this test process.
func joinMeshes(t *testing.T, n int) []*dataflow.Mesh {
	t.Helper()
	specs := localClusterSpecs(t, n)
	meshes := make([]*dataflow.Mesh, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			meshes[p], errs[p] = dataflow.JoinMesh(specs[p])
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", p, err)
		}
	}
	return meshes
}

// buildRefusal builds a one-worker execution (on mesh, when non-nil) and
// returns what Build panicked with, then closes the mesh.
func buildRefusal(mesh *dataflow.Mesh, build func(w *dataflow.Worker)) (msg string) {
	exec := dataflow.NewExecution(dataflow.Config{Workers: 1, Mesh: mesh})
	defer func() {
		msg = fmt.Sprint(recover())
		if mesh != nil {
			mesh.Abandon()
			exec.Wait()
		}
	}()
	exec.Build(build)
	return ""
}

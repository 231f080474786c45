package campaign

import (
	"fmt"

	"repro/internal/gsb"
	"repro/internal/mem"
	"repro/internal/tasks"
	"repro/internal/universal"
)

// SelectProtocol maps a protocol name — the vocabulary shared by
// cmd/gsbrun and every campaign Request — to the task specification it
// solves and a per-run solver constructor. seed seeds the oracle-box
// assignment draws of the protocols that use one, so a protocol
// selection is fully reproducible from (name, n, seed). Call the
// constructor with the selected n: the oracle boxes' task specs are built
// once per selection, not once per run.
//
// Names:
//
//	renaming       snapshot-based adaptive (2n-1)-renaming
//	grid           Moir-Anderson splitter-grid renaming (n(n+1)/2 names)
//	slot-renaming  Figure 2: (n+1)-renaming from an (n-1)-slot object
//	wsb            WSB from a (2n-2)-renaming oracle
//	renaming-wsb   (2n-2)-renaming from a WSB oracle
//	election       election from perfect renaming (TAS row)
//	universal      <n,3,1,n>-GSB via Theorem 8 from perfect renaming
func SelectProtocol(protocol string, n int, seed int64) (gsb.Spec, func(n int) tasks.Solver, error) {
	switch protocol {
	case "renaming":
		return gsb.Renaming(n, 2*n-1),
			func(n int) tasks.Solver { return tasks.NewSnapshotRenaming("R", n) }, nil
	case "grid":
		return gsb.Renaming(n, n*(n+1)/2),
			func(n int) tasks.Solver { return tasks.NewGridRenaming("G", n) }, nil
	case "slot-renaming":
		slots := gsb.KSlot(n, n-1)
		return gsb.Renaming(n, n+1), func(int) tasks.Solver {
			return tasks.NewSlotRenaming("F2", n, mem.NewTaskBox("KS", slots, seed))
		}, nil
	case "wsb":
		renaming := gsb.Renaming(n, 2*n-2)
		return gsb.WSB(n), func(int) tasks.Solver {
			return tasks.NewWSBFromRenaming(n, tasks.NewBoxSolver(mem.NewTaskBox("R", renaming, seed)))
		}, nil
	case "renaming-wsb":
		wsb := gsb.WSB(n)
		return gsb.Renaming(n, 2*n-2), func(int) tasks.Solver {
			return tasks.NewRenamingFromWSB("RW", n, mem.NewTaskBox("WSB", wsb, seed))
		}, nil
	case "election":
		return gsb.Election(n), func(n int) tasks.Solver {
			return tasks.NewElectionFromPerfectRenaming(tasks.NewTASRenaming("TAS", n))
		}, nil
	case "universal":
		if n < 3 {
			return gsb.Spec{}, nil, fmt.Errorf("protocol universal solves <n,3,1,n>-GSB and needs n >= 3, got n=%d", n)
		}
		spec := gsb.KSlot(n, 3)
		return spec, func(n int) tasks.Solver {
			return universal.New(spec, tasks.NewTASRenaming("TAS", n))
		}, nil
	default:
		return gsb.Spec{}, nil, fmt.Errorf("unknown protocol %q", protocol)
	}
}

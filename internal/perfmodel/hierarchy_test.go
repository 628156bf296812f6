package perfmodel

import (
	"testing"

	"repro/internal/trace"
)

func nodeTrace() *trace.Trace {
	return &trace.Trace{
		N: 500000, Iterations: 1000000, AvgNNZ: 30, SVCount: 50000,
		Segments: []trace.Segment{
			{FromIter: 0, Active: 500000},
			{FromIter: 200000, Active: 120000},
		},
	}
}

func TestCascadeNodesDefaults(t *testing.T) {
	nm := CascadeNodes(1e-7, 30)
	if nm.PerNode != 16 {
		t.Fatalf("PerNode = %d", nm.PerNode)
	}
	if nm.Intra.Alpha >= nm.Inter.Alpha {
		t.Fatal("intra-node latency should be below inter-node")
	}
	if nm.Nodes(4096) != 256 {
		t.Fatalf("Nodes(4096) = %d, want 256 (the paper's 256 compute nodes)", nm.Nodes(4096))
	}
	if nm.Nodes(17) != 2 || nm.Nodes(16) != 1 || nm.Nodes(1) != 1 {
		t.Fatal("node rounding wrong")
	}
}

func TestHierarchicalCheaperThanFlat(t *testing.T) {
	// With part of the collective rounds on shared memory, communication
	// must cost less than the flat all-InfiniBand model, and never less
	// than a hypothetical all-shared-memory machine.
	nm := CascadeNodes(1e-7, 30)
	tr := nodeTrace()
	for _, p := range []int{32, 256, 4096} {
		flatInter := Machine{Net: nm.Inter, Lambda: nm.Lambda, RowBytes: nm.RowBytes}
		flatIntra := Machine{Net: nm.Intra, Lambda: nm.Lambda, RowBytes: nm.RowBytes}
		bInter, err := Evaluate(tr, p, flatInter)
		if err != nil {
			t.Fatal(err)
		}
		bIntra, err := Evaluate(tr, p, flatIntra)
		if err != nil {
			t.Fatal(err)
		}
		bNode, err := nm.Evaluate(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		commNode, commInter, commIntra := bNode.ReduceComm, bInter.ReduceComm, bIntra.ReduceComm
		if commNode >= commInter {
			t.Fatalf("p=%d: hierarchical comm %v not below flat inter %v", p, commNode, commInter)
		}
		if commNode <= commIntra {
			t.Fatalf("p=%d: hierarchical comm %v not above flat intra %v", p, commNode, commIntra)
		}
		// Compute time is identical across machines.
		if bNode.Compute != bInter.Compute {
			t.Fatalf("compute changed: %v vs %v", bNode.Compute, bInter.Compute)
		}
	}
}

func TestHierarchySingleNodeUsesIntraOnly(t *testing.T) {
	nm := CascadeNodes(1e-7, 30)
	m, err := nm.flatten(16) // exactly one node
	if err != nil {
		t.Fatal(err)
	}
	if m.Net != nm.Intra {
		t.Fatalf("one-node job should see pure intra constants, got %+v", m.Net)
	}
}

func TestHierarchyValidation(t *testing.T) {
	nm := CascadeNodes(1e-7, 30)
	nm.PerNode = 0
	if _, err := nm.Evaluate(nodeTrace(), 4); err == nil {
		t.Fatal("PerNode=0 accepted")
	}
	nm = CascadeNodes(1e-7, 30)
	if _, err := nm.Evaluate(nodeTrace(), 0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestHierarchySingleProcessFree(t *testing.T) {
	nm := CascadeNodes(1e-7, 30)
	b, err := nm.Evaluate(nodeTrace(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.ReduceComm != 0 {
		t.Fatalf("p=1 should have no communication: %+v", b)
	}
}

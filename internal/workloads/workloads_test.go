package workloads

import (
	"reflect"
	"testing"

	"mnpusim/internal/model"
)

func TestAllScalesProduceValidNetworks(t *testing.T) {
	for _, s := range []Scale{ScaleTiny, ScaleSmall, ScalePaper} {
		ws := All(s)
		if len(ws) != 8 {
			t.Fatalf("scale %s: %d workloads, want 8 (Table 1)", s, len(ws))
		}
		for _, w := range ws {
			if err := w.Net.Validate(); err != nil {
				t.Errorf("%s at %s: %v", w.Short, s, err)
			}
		}
	}
}

func TestNamesMatchTable1(t *testing.T) {
	want := []string{"res", "yt", "alex", "sfrnn", "ds2", "dlrm", "ncf", "gpt2"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// All(s) order must match Names().
	for i, w := range All(ScaleTiny) {
		if w.Short != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, w.Short, want[i])
		}
	}
}

func TestClassesMatchTable1(t *testing.T) {
	classes := map[string]Class{
		"res": CNN, "yt": CNN, "alex": CNN,
		"sfrnn": RNN, "ds2": RNN,
		"dlrm": Recommendation, "ncf": Recommendation,
		"gpt2": AttentionClass,
	}
	for _, w := range All(ScaleTiny) {
		if w.Class != classes[w.Short] {
			t.Errorf("%s class = %s, want %s", w.Short, w.Class, classes[w.Short])
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("gpt2", ScaleTiny)
	if err != nil || w.Short != "gpt2" {
		t.Errorf("ByName(gpt2): %v %v", w.Short, err)
	}
	if _, err := ByName("nope", ScaleTiny); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestByNameMatchesAll checks that building one network by name gives
// exactly the entry All returns for it, at every scale.
func TestByNameMatchesAll(t *testing.T) {
	for _, s := range []Scale{ScaleTiny, ScaleSmall, ScalePaper} {
		for i, w := range All(s) {
			got, err := ByName(Names()[i], s)
			if err != nil {
				t.Fatalf("ByName(%s, %s): %v", Names()[i], s, err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Errorf("ByName(%s, %s) differs from All(%s)[%d]", Names()[i], s, s, i)
			}
		}
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName did not panic")
		}
	}()
	MustByName("nope", ScaleTiny)
}

func TestScaleStringsAndDivisors(t *testing.T) {
	if ScaleTiny.String() != "tiny" || ScaleSmall.String() != "small" || ScalePaper.String() != "paper" {
		t.Error("scale strings wrong")
	}
	if ScalePaper.Div() != 1 || ScalePaper.SpatialDiv() != 1 {
		t.Error("paper scale must not shrink dimensions")
	}
	if ScaleTiny.Div() <= ScaleSmall.Div() {
		t.Error("tiny should shrink more than small")
	}
}

func TestScalingShrinksWork(t *testing.T) {
	for _, name := range Names() {
		tiny := MustByName(name, ScaleTiny).Net.Analyze()
		paper := MustByName(name, ScalePaper).Net.Analyze()
		if tiny.MACs >= paper.MACs {
			t.Errorf("%s: tiny MACs %d >= paper MACs %d", name, tiny.MACs, paper.MACs)
		}
		if tiny.TotalElems() >= paper.TotalElems() {
			t.Errorf("%s: tiny footprint not smaller", name)
		}
	}
}

func TestIntensityCharacterPreservedAcrossScales(t *testing.T) {
	// The RNN and recommendation models must stay far less
	// arithmetically intense than the CNNs and gpt2 at every scale —
	// the property the sharing study depends on (§4.2.3).
	for _, s := range []Scale{ScaleTiny, ScaleSmall, ScalePaper} {
		intensity := map[string]float64{}
		for _, w := range All(s) {
			intensity[w.Short] = w.Net.Analyze().ArithmeticIntensity()
		}
		for _, compBound := range []string{"yt", "gpt2"} {
			if intensity["sfrnn"]*4 > intensity[compBound] {
				t.Errorf("scale %s: sfrnn (%.1f) not clearly below %s (%.1f)",
					s, intensity["sfrnn"], compBound, intensity[compBound])
			}
		}
	}
}

func TestResNet50HasBottleneckDepth(t *testing.T) {
	net := ResNet50(ScalePaper).Net
	// conv1 + 3*(3+4+6+3) bottleneck convs + fc = 50 layers.
	if got := len(net.Layers); got != 50 {
		t.Errorf("ResNet50 has %d layers, want 50", got)
	}
}

func TestDLRMIsGatherDominated(t *testing.T) {
	// dlrm's memory-boundness comes from scattered table lookups, not
	// from dense-operand volume: at every scale the gather ops must
	// exist and their rows must be a large share of input traffic.
	for _, s := range []Scale{ScaleTiny, ScalePaper} {
		net := DLRM(s).Net
		gathers := 0
		var gatherElems, totalIn int64
		for _, op := range net.Lower() {
			totalIn += op.InputElems()
			if op.Gather {
				gathers++
				gatherElems += op.InputElems()
			}
		}
		if gathers != 8 {
			t.Errorf("scale %s: DLRM gather ops = %d, want 8 tables", s, gathers)
		}
		if gatherElems*4 < totalIn {
			t.Errorf("scale %s: gathers are only %d of %d input elems", s, gatherElems, totalIn)
		}
	}
}

func TestGPT2BlocksAreAttention(t *testing.T) {
	net := GPT2(ScalePaper).Net
	found := false
	for _, l := range net.Layers {
		if l.Kind == model.Attention {
			found = true
			if l.ModelDim != 768 || l.Repeat != 12 {
				t.Errorf("gpt2 paper dims: %+v", l)
			}
		}
	}
	if !found {
		t.Error("gpt2 has no attention layer")
	}
}

func TestRandomNetworksAreValidAndDeterministic(t *testing.T) {
	spec := DefaultRandomSpec(ScaleTiny)
	for seed := int64(0); seed < 30; seed++ {
		n1 := Random(spec, seed)
		if err := n1.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		n2 := Random(spec, seed)
		if len(n1.Layers) != len(n2.Layers) {
			t.Errorf("seed %d not deterministic", seed)
		}
		for i := range n1.Layers {
			if n1.Layers[i] != n2.Layers[i] {
				t.Errorf("seed %d layer %d differs", seed, i)
			}
		}
	}
}

func TestRandomNetworksRespectBounds(t *testing.T) {
	spec := DefaultRandomSpec(ScaleTiny)
	for seed := int64(100); seed < 130; seed++ {
		n := Random(spec, seed)
		if len(n.Layers) < spec.MinLayers || len(n.Layers) > spec.MaxLayers {
			t.Errorf("seed %d: %d layers outside [%d,%d]", seed, len(n.Layers), spec.MinLayers, spec.MaxLayers)
		}
		for _, l := range n.Layers {
			switch l.Kind {
			case model.Conv:
				if l.InC < spec.MinChannels || l.InC > spec.MaxChannels {
					t.Errorf("seed %d: conv InC %d out of range", seed, l.InC)
				}
			case model.GEMM:
				if l.K < spec.MinKN || l.K > spec.MaxKN {
					t.Errorf("seed %d: gemm K %d out of range", seed, l.K)
				}
			default:
				t.Errorf("seed %d: unexpected kind %v", seed, l.Kind)
			}
		}
	}
}

func TestRandomSetDistinctSeeds(t *testing.T) {
	nets := RandomSet(DefaultRandomSpec(ScaleTiny), 1, 5)
	if len(nets) != 5 {
		t.Fatalf("got %d nets", len(nets))
	}
	names := map[string]bool{}
	for _, n := range nets {
		if names[n.Name] {
			t.Errorf("duplicate name %s", n.Name)
		}
		names[n.Name] = true
	}
}

package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pivot/internal/load"
	"pivot/internal/workload"
)

// TestParseErrors drives the codec and validator through every rejection
// class, checking both the field path and the message substance.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		path string // FieldError.Path
		msg  string // substring of FieldError.Msg
	}{
		{
			name: "unknown top-level field",
			doc: `{"version":1,"name":"t","policy":"Default","bogus":3,
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}]}`,
			path: "", msg: `unknown field "bogus"`,
		},
		{
			name: "unknown machine field",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "machine":{"presett":"kunpeng"},
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}]}`,
			path: "machine", msg: `unknown field "presett"`,
		},
		{
			name: "unknown options field",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "options":{"rrbp_size":16},
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}]}`,
			path: "options", msg: `unknown field "rrbp_size"`,
		},
		{
			name: "unknown task field",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","loadpct":70}]}`,
			path: "tasks[0]", msg: `unknown field "loadpct"`,
		},
		{
			name: "unknown load field",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,
			                 "load":{"theta":0.5}}]}`,
			path: "tasks[0].load", msg: `unknown field "theta"`,
		},
		{
			name: "unknown load phase field",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,
			                 "load":{"phases":[{"shape":"flat","cycles":10,"scale":1},
			                                   {"shape":"flat","cycles":10,"slope":2}]}}]}`,
			path: "tasks[0].load.phases[1]", msg: `unknown field "slope"`,
		},
		{
			name: "unknown lc_params field",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","lc_params":{"name":"x","chase_depth":4,
			                 "chase_lines":1024,"chase_pcs":4,"mlp":2},"load_pct":70}]}`,
			path: "tasks[0].lc_params", msg: `unknown field "mlp"`,
		},
		{
			name: "unknown sweep axis field",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			       "sweep":[{"param":"policy","values":["Default"],"step":2}]}`,
			path: "sweep[0]", msg: `unknown field "step"`,
		},
		{
			name: "removed sim stanza",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			       "sim":{"parallel":2}}`,
			path: "sim", msg: "sharded parallel engine was removed; delete the sim stanza",
		},
		{
			name: "removed faults stanza",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			       "faults":{"stations":{"Bus":{"drop":0.01}}}}`,
			path: "", msg: `unknown field "faults"`,
		},
		{
			name: "type error on scalar",
			doc: `{"version":"one","name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}]}`,
			path: "version", msg: "cannot use JSON string here",
		},
		{
			name: "type error inside nested struct",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "machine":{"cores":"eight"},
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}]}`,
			path: "machine.cores", msg: "cannot use JSON string here",
		},
		{
			name: "bad version",
			doc: `{"version":2,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}]}`,
			path: "version", msg: "must be 1",
		},
		{
			name: "missing name",
			doc: `{"version":1,"policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}]}`,
			path: "name", msg: "must be set",
		},
		{
			name: "bad machine preset",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "machine":{"preset":"epyc"},
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}]}`,
			path: "machine.preset", msg: `unknown preset "epyc"`,
		},
		{
			name: "bad policy",
			doc: `{"version":1,"name":"t","policy":"pivot",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}]}`,
			path: "policy", msg: `unknown policy "pivot"`,
		},
		{
			name: "bad disable_msc",
			doc: `{"version":1,"name":"t","policy":"FullPath",
			       "options":{"disable_msc":"L2"},
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}]}`,
			path: "options.disable_msc", msg: `unknown MSC "L2"`,
		},
		{
			name: "no tasks",
			doc:  `{"version":1,"name":"t","policy":"Default","tasks":[]}`,
			path: "tasks", msg: "at least one task",
		},
		{
			name: "bad task kind",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"batch","app":"ibench"}]}`,
			path: "tasks[0].kind", msg: `must be "lc" or "be"`,
		},
		{
			name: "bad LC app name",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"redis","load_pct":70}]}`,
			path: "tasks[0].app", msg: `unknown LC application "redis"`,
		},
		{
			name: "bad BE app name",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70},
			                {"kind":"be","app":"memcached"}]}`,
			path: "tasks[1].app", msg: `unknown BE application "memcached"`,
		},
		{
			name: "app and inline params together",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,
			                 "lc_params":{"name":"x","chase_depth":4,"chase_lines":64,"chase_pcs":2}}]}`,
			path: "tasks[0]", msg: "mutually exclusive",
		},
		{
			name: "neither app nor inline params",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","load_pct":70}]}`,
			path: "tasks[0]", msg: "set app or inline params",
		},
		{
			name: "be_params on an lc task",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","be_params":{"name":"x"},"load_pct":70}]}`,
			path: "tasks[0].be_params", msg: `not allowed on an "lc" task`,
		},
		{
			name: "custom name shadows catalogue app",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","lc_params":{"name":"silo","chase_depth":4,
			                 "chase_lines":64,"chase_pcs":2},"load_pct":70}]}`,
			path: "tasks[0].lc_params.name", msg: "shadows a catalogue LC application",
		},
		{
			name: "duplicate custom name",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","lc_params":{"name":"x","chase_depth":4,
			                 "chase_lines":64,"chase_pcs":2},"load_pct":70},
			                {"kind":"be","be_params":{"name":"x","stream_frac":1,
			                 "stream_lines":64,"mlp":2,"pcs":2}}]}`,
			path: "tasks[1].be_params.name", msg: `already defined at tasks[0].lc_params.name`,
		},
		{
			name: "zero chase_lines",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","lc_params":{"name":"x","chase_depth":4,"chase_lines":0,"chase_pcs":2},"load_pct":70}]}`,
			path: "tasks[0].lc_params.chase_lines", msg: "must be a power of two",
		},
		{
			name: "chase_lines not a power of two",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","lc_params":{"name":"x","chase_depth":4,"chase_lines":1000,"chase_pcs":2},"load_pct":70}]}`,
			path: "tasks[0].lc_params.chase_lines", msg: "must be a power of two",
		},
		{
			name: "chase_lines past the chase slice",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","lc_params":{"name":"x","chase_depth":4,"chase_lines":4398046511104,"chase_pcs":2},"load_pct":70}]}`,
			path: "tasks[0].lc_params.chase_lines", msg: "overrun the chase slice",
		},
		{
			name: "chase_lines one doubling past the chase slice",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","lc_params":{"name":"x","chase_depth":4,"chase_lines":33554432,"chase_pcs":2},"load_pct":70}]}`,
			path: "tasks[0].lc_params.chase_lines", msg: "at most 16777216",
		},
		{
			name: "zero chase_pcs",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","lc_params":{"name":"x","chase_depth":4,"chase_lines":64,"chase_pcs":0},"load_pct":70}]}`,
			path: "tasks[0].lc_params.chase_pcs", msg: "must be positive",
		},
		{
			name: "payload loads without payload lines",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","lc_params":{"name":"x","chase_depth":4,"chase_lines":64,"chase_pcs":2,"payload_loads":2},"load_pct":70}]}`,
			path: "tasks[0].lc_params.payload_lines", msg: "must be positive when payload_loads is set",
		},
		{
			name: "payload_lines past the next core",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","lc_params":{"name":"x","chase_depth":4,"chase_lines":64,"chase_pcs":2,"payload_loads":1,"payload_lines":117440513},"load_pct":70}]}`,
			path: "tasks[0].lc_params.payload_lines", msg: "overrun the payload slice",
		},
		{
			name: "streaming BE without stream lines",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70},
			                {"kind":"be","be_params":{"name":"y","stream_frac":0.5,"rand_lines":64,"mlp":2,"pcs":2}}]}`,
			path: "tasks[1].be_params.stream_lines", msg: "must be positive when stream_frac is above 0",
		},
		{
			name: "stream_lines past the stream slice",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70},
			                {"kind":"be","be_params":{"name":"y","stream_frac":1,"stream_lines":4194305,"mlp":2,"pcs":2}}]}`,
			path: "tasks[1].be_params.stream_lines", msg: "overrun the stream slice",
		},
		{
			name: "random BE without rand lines",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70},
			                {"kind":"be","be_params":{"name":"y","stream_frac":0.5,"stream_lines":64,"mlp":2,"pcs":2}}]}`,
			path: "tasks[1].be_params.rand_lines", msg: "must be positive when stream_frac is below 1",
		},
		{
			name: "rand_lines past the next core",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70},
			                {"kind":"be","be_params":{"name":"y","rand_lines":130023425,"mlp":2,"pcs":2}}]}`,
			path: "tasks[1].be_params.rand_lines", msg: "overrun the random slice",
		},
		{
			name: "zero mlp",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70},
			                {"kind":"be","be_params":{"name":"y","stream_frac":1,"stream_lines":64,"pcs":2}}]}`,
			path: "tasks[1].be_params.mlp", msg: "must be positive",
		},
		{
			name: "zero pcs",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70},
			                {"kind":"be","be_params":{"name":"y","stream_frac":1,"stream_lines":64,"mlp":2}}]}`,
			path: "tasks[1].be_params.pcs", msg: "must be positive",
		},
		{
			name: "threads on an lc task",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,"threads":2}]}`,
			path: "tasks[0].threads", msg: `only valid on "be" tasks`,
		},
		{
			name: "load_pct on a be task",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"be","app":"ibench","load_pct":70}]}`,
			path: "tasks[0].load_pct", msg: `only valid on "lc" tasks`,
		},
		{
			name: "load_pct out of range",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":120}]}`,
			path: "tasks[0].load_pct", msg: "must be in 1..100",
		},
		{
			name: "load_pct and interarrival together",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,"interarrival":800}]}`,
			path: "tasks[0]", msg: "mutually exclusive",
		},
		{
			name: "task count over core budget",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "machine":{"cores":4},
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70},
			                {"kind":"be","app":"ibench","threads":7}]}`,
			path: "tasks", msg: "mix needs 8 cores but the machine has 4",
		},
		{
			name: "empty sweep axis",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			       "sweep":[{"param":"policy","values":[]}]}`,
			path: "sweep[0].values", msg: `empty sweep axis "policy"`,
		},
		{
			name: "duplicate sweep parameter",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			       "sweep":[{"param":"policy","values":["Default"]},
			                {"param":"policy","values":["PIVOT"]}]}`,
			path: "sweep[1]", msg: `parameter "policy" already swept by sweep[0]`,
		},
		{
			name: "unknown sweep parameter",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			       "sweep":[{"param":"frequency","values":[1]}]}`,
			path: "sweep[frequency].values[0]", msg: `unknown sweep parameter "frequency"`,
		},
		{
			name: "sweep task index out of range",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			       "sweep":[{"param":"tasks[3].app","values":["moses"]}]}`,
			path: "sweep[tasks[3].app].values[0]", msg: "task index 3 out of range",
		},
		{
			name: "sweep LC field of a BE task",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"be","app":"ibench"}],
			       "sweep":[{"param":"tasks[0].load_pct","values":[30]}]}`,
			path: "sweep[tasks[0].load_pct].values[0]", msg: `tasks[0].load_pct: only valid on "lc" tasks`,
		},
		{
			name: "sweep value type error",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			       "sweep":[{"param":"tasks[0].load_pct","values":["high"]}]}`,
			path: "sweep[tasks[0].load_pct].values[0]", msg: "cannot use JSON string here",
		},
		{
			name: "sweep value out of range",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			       "sweep":[{"param":"tasks[0].load_pct","values":[50,120]}]}`,
			path: "sweep[tasks[0].load_pct].values[1]", msg: "tasks[0].load_pct: load_pct 120 must be in 1..100",
		},
		{
			name: "sweep value zero means closed loop",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			       "sweep":[{"param":"tasks[0].load_pct","values":[0]}]}`,
			path: "sweep[tasks[0].load_pct].values[0]", msg: "tasks[0].load_pct 0 would run closed loop",
		},
		{
			name: "sweep app value not in catalogue",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			       "sweep":[{"param":"tasks[0].app","values":["redis"]}]}`,
			path: "sweep[tasks[0].app].values[0]", msg: `unknown LC application "redis"`,
		},
		{
			name: "tuple arity mismatch",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70},
			                {"kind":"lc","app":"moses","load_pct":70}],
			       "sweep":[{"params":["tasks[0].app","tasks[1].app"],
			                 "values":[["silo"]]}]}`,
			path: "sweep[tasks[0].app,tasks[1].app].values[0]",
			msg:  "tuple has 1 elements for 2 params",
		},
		{
			name: "load zipf_theta out of range",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,
			                 "load":{"zipf_theta":1.5}}]}`,
			path: "tasks[0].load.zipf_theta", msg: "must be in [0, 1)",
		},
		{
			name: "load shaping without base rate",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,
			                 "load":{"phases":[{"shape":"flat","cycles":100,"scale":1}]}},
			                {"kind":"lc","app":"moses",
			                 "load":{"phases":[{"shape":"flat","cycles":100,"scale":1}]}}]}`,
			path: "tasks[1].load", msg: "needs a base rate",
		},
		{
			name: "load phase field not valid for shape",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,
			                 "load":{"phases":[{"shape":"flat","cycles":100,"scale":1,"to":2}]}}]}`,
			path: "tasks[0].load.phases[0].to", msg: `not valid for shape "flat"`,
		},
		{
			name: "load unknown shape",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,
			                 "load":{"phases":[{"shape":"square","cycles":100,"scale":1}]}}]}`,
			path: "tasks[0].load.phases[0].shape", msg: `unknown shape "square"`,
		},
		{
			name: "load all phases silent",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,
			                 "load":{"phases":[{"shape":"off","cycles":100}]}}]}`,
			path: "tasks[0].load.phases", msg: "every phase is silent",
		},
		{
			name: "load windows out of order",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,
			                 "load":{"windows":[{"from":0,"until":500},
			                                    {"from":400,"until":900}]}}]}`,
			path: "tasks[0].load.windows[1].from", msg: "ordered and disjoint",
		},
		{
			name: "load stanza on be task",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"be","app":"ibench","threads":2,
			                 "load":{"zipf_theta":0.5}}]}`,
			path: "tasks[0].load", msg: `only valid on "lc" tasks`,
		},
		{
			name: "load sweep value out of range",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,
			                 "load":{"zipf_theta":0.5}}],
			       "sweep":[{"param":"tasks[0].load.zipf_theta","values":[0.2,1.0]}]}`,
			path: "sweep[tasks[0].load.zipf_theta].values[1]", msg: "must be in [0, 1)",
		},
		{
			name: "load sweep phase index out of range",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,
			                 "load":{"phases":[{"shape":"flat","cycles":100,"scale":1}]}}],
			       "sweep":[{"param":"tasks[0].load.phases[1].scale","values":[2]}]}`,
			path: "sweep[tasks[0].load.phases[1].scale].values[0]",
			msg:  "phase index 1 out of range",
		},
		{
			name: "load sweep scale on an off phase",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70,
			                 "load":{"phases":[{"shape":"off","cycles":100},
			                                   {"shape":"flat","cycles":100,"scale":1}]}}],
			       "sweep":[{"param":"tasks[0].load.phases[0].scale","values":[2]}]}`,
			path: "sweep[tasks[0].load.phases[0].scale].values[0]",
			msg:  `tasks[0].load.phases[0].scale: not valid for shape "off"`,
		},
		{
			name: "load sweep without a load stanza",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70}],
			       "sweep":[{"param":"tasks[0].load.zipf_theta","values":[0.5]}]}`,
			path: "sweep[tasks[0].load.zipf_theta].values[0]",
			msg:  "sweeps a field of tasks[0].load, which the scenario does not set",
		},
		{
			name: "unsweepable inline params",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "tasks":[{"kind":"lc","lc_params":{"name":"x","chase_depth":4,"chase_lines":64,"chase_pcs":2},"load_pct":70}],
			       "sweep":[{"param":"tasks[0].lc_params.chase_depth","values":[8]}]}`,
			path: "sweep[tasks[0].lc_params.chase_depth].values[0]",
			msg:  `unknown sweep parameter "tasks[0].lc_params.chase_depth"`,
		},
		{
			name: "axis value breaks core budget",
			doc: `{"version":1,"name":"t","policy":"Default",
			       "machine":{"cores":4},
			       "tasks":[{"kind":"lc","app":"silo","load_pct":70},
			                {"kind":"be","app":"ibench","threads":2}],
			       "sweep":[{"param":"tasks[1].threads","values":[2,6]}]}`,
			path: "sweep[tasks[1].threads].values[1]", msg: "mix needs 7 cores",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted the document")
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v (%T) is not a FieldError", err, err)
			}
			if fe.Path != tc.path {
				t.Errorf("path = %q, want %q (msg %q)", fe.Path, tc.path, fe.Msg)
			}
			if !strings.Contains(fe.Msg, tc.msg) {
				t.Errorf("msg = %q, want substring %q", fe.Msg, tc.msg)
			}
		})
	}
}

// TestParseValid round-trips a full-featured document.
func TestParseValid(t *testing.T) {
	doc := `{
	  "version": 1,
	  "name": "custom-mix",
	  "brief": "a custom LC against iBench",
	  "machine": {"preset": "kunpeng", "cores": 8, "be_ways": 4},
	  "policy": "PIVOT",
	  "options": {"expected_lc_bw": 0.1, "rrbp_entries": 32},
	  "tasks": [
	    {"kind": "lc",
	     "lc_params": {"name": "mini-kv", "chase_depth": 6,
	                   "chase_lines": 4096, "chase_pcs": 4,
	                   "payload_loads": 1, "payload_lines": 256, "payload_pcs": 16,
	                   "alu_per_step": 2, "alu_lat": 1, "stores_per_req": 1},
	     "interarrival": 900},
	    {"kind": "be", "app": "ibench", "threads": 3}
	  ],
	  "warmup": 10000,
	  "measure": 20000,
	  "seed": 7,
	  "sweep": [{"param": "policy", "values": ["Default", "PIVOT"]}]
	}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "custom-mix" || s.Policy != "PIVOT" || s.Seed != 7 {
		t.Errorf("header fields wrong: %+v", s)
	}
	if s.Machine.Preset != PresetKunpeng || s.Machine.BEWays != 4 {
		t.Errorf("machine wrong: %+v", s.Machine)
	}
	if s.Options.RRBPEntries != 32 || s.Options.ExpectedLCBW != 0.1 {
		t.Errorf("options wrong: %+v", s.Options)
	}
	lc := s.Tasks[0]
	if lc.LCParams == nil || lc.LCParams.Name != "mini-kv" || lc.Interarrival != 900 {
		t.Errorf("lc task wrong: %+v", lc)
	}
	wp := lc.LCWorkload()
	if wp.Name != "mini-kv" || wp.ChaseDepth != 6 || wp.ChaseLines != 4096 {
		t.Errorf("LCWorkload conversion wrong: %+v", wp)
	}
	if got := s.Tasks[1].BEWorkload(); got.Name != workload.IBench {
		t.Errorf("BEWorkload conversion wrong: %+v", got)
	}
	if lc.AppName() != "mini-kv" || s.Tasks[1].AppName() != workload.IBench {
		t.Errorf("AppName wrong: %q, %q", lc.AppName(), s.Tasks[1].AppName())
	}
	units, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(units) != 2 {
		t.Fatalf("Expand produced %d units, want 2", len(units))
	}
}

// TestParseAcceptsLargestWorkingSets: every working set may fill its slice
// of the core's region exactly, and a BE stream that never takes a branch
// needs no lines for it.
func TestParseAcceptsLargestWorkingSets(t *testing.T) {
	doc := fmt.Sprintf(`{"version":1,"name":"t","policy":"Default",
	  "tasks":[{"kind":"lc","lc_params":{"name":"x","chase_depth":4,"chase_lines":%d,"chase_pcs":2,
	                                     "payload_loads":1,"payload_lines":%d},"load_pct":70},
	           {"kind":"be","be_params":{"name":"y","stream_frac":0.5,"stream_lines":%d,"rand_lines":%d,"mlp":2,"pcs":2}},
	           {"kind":"be","be_params":{"name":"z","rand_lines":64,"mlp":2,"pcs":2}}]}`,
		workload.MaxChaseLines, workload.MaxPayloadLines, workload.MaxStreamLines, workload.MaxRandLines)
	if _, err := Parse([]byte(doc)); err != nil {
		t.Fatalf("Parse: %v", err)
	}
}

// TestLoad checks the file wrapper, including the filename prefix on errors.
func TestLoad(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	doc := `{"version":1,"name":"t","policy":"Default",
	         "tasks":[{"kind":"lc","app":"silo","load_pct":70}]}`
	if err := os.WriteFile(good, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(good); err != nil {
		t.Fatalf("Load(good): %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"nme":"t"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(bad)
	if err == nil {
		t.Fatal("Load(bad) succeeded")
	}
	if !strings.Contains(err.Error(), "bad.json") ||
		!strings.Contains(err.Error(), `unknown field "nme"`) {
		t.Errorf("Load(bad) error %q lacks filename or field", err)
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("Load(absent) succeeded")
	}
}

// TestLoadStanza round-trips a scenario exercising every load-model
// feature: parse, canonical-encode fixed point, conversion to the
// simulator spec, and sweeping load fields.
func TestLoadStanza(t *testing.T) {
	doc := `{"version":1,"name":"shapes","policy":"Default",
	  "tasks":[
	    {"kind":"lc","app":"silo","load_pct":70,
	     "load":{"zipf_theta":0.8,
	             "phases":[{"shape":"flat","cycles":200000,"scale":1},
	                       {"shape":"sine","cycles":400000,"scale":1,"amp":0.5,"period":200000},
	                       {"shape":"ramp","cycles":100000,"scale":1,"to":2},
	                       {"shape":"off","cycles":50000}],
	             "repeat":true,
	             "onoff":{"on_mean":50000,"off_mean":25000,"on_scale":1.5},
	             "windows":[{"until":800000},{"from":900000,"until":1500000}]}},
	    {"kind":"be","app":"ibench","threads":2}
	  ],
	  "sweep":[{"param":"tasks[0].load.zipf_theta","values":[0,0.8]},
	           {"param":"tasks[0].load.phases[2].scale","values":[1,0.5]}]}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	enc := s.MustEncode()
	s2, err := Parse(enc)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if enc2 := s2.MustEncode(); !bytes.Equal(enc, enc2) {
		t.Errorf("Encode is not a fixed point:\n%s\n%s", enc, enc2)
	}
	ls := s.Tasks[0].Load.ToLoad()
	if ls.ZipfTheta != 0.8 || !ls.Repeat || len(ls.Phases) != 4 ||
		len(ls.Windows) != 2 || !ls.OnOff.Enabled() {
		t.Errorf("ToLoad conversion wrong: %+v", ls)
	}
	if ls.Phases[1].Shape != load.ShapeSine || ls.Phases[1].Amp != 0.5 ||
		ls.Phases[2].To != 2 || ls.Phases[3].Shape != load.ShapeOff {
		t.Errorf("phase conversion wrong: %+v", ls.Phases)
	}
	if ls.Stationary() {
		t.Error("shaped spec reports Stationary")
	}
	if (load.Spec{Mean: 800}).Shaped() {
		t.Error("bare-mean spec reports Shaped")
	}
	units, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(units) != 4 {
		t.Fatalf("Expand produced %d units, want 4", len(units))
	}
	u := units[3].Scenario
	if u.Tasks[0].Load.ZipfTheta != 0.8 || u.Tasks[0].Load.Phases[2].Scale != 0.5 {
		t.Errorf("sweep did not resolve load fields: %+v", u.Tasks[0].Load)
	}
	// Expansion must deep-copy the stanza: mutating a unit's phases must
	// not touch the source scenario.
	u.Tasks[0].Load.Phases[0].Scale = 99
	if s.Tasks[0].Load.Phases[0].Scale != 1 {
		t.Error("expansion aliased the source load stanza")
	}
}

// TestExpandOrderAndLabels pins the cartesian expansion: first axis
// outermost, labels joined from "param=value" parts.
func TestExpandOrderAndLabels(t *testing.T) {
	s := &Scenario{
		Version: Version, Name: "t", Policy: "Default",
		Tasks: []Task{lcTask(workload.Silo, 70), beTask(workload.IBench, 2)},
		Sweep: []Axis{
			strAxis("policy", "Default", "PIVOT"),
			intAxis("tasks[0].load_pct", 10, 30),
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	units := s.MustExpand()
	want := []struct {
		label  string
		policy string
		load   int
	}{
		{"policy=Default tasks[0].load_pct=10", "Default", 10},
		{"policy=Default tasks[0].load_pct=30", "Default", 30},
		{"policy=PIVOT tasks[0].load_pct=10", "PIVOT", 10},
		{"policy=PIVOT tasks[0].load_pct=30", "PIVOT", 30},
	}
	if len(units) != len(want) {
		t.Fatalf("got %d units, want %d", len(units), len(want))
	}
	for i, w := range want {
		u := units[i]
		if u.Label != w.label {
			t.Errorf("unit %d label = %q, want %q", i, u.Label, w.label)
		}
		if u.Scenario.Policy != w.policy || u.Scenario.Tasks[0].LoadPct != w.load {
			t.Errorf("unit %d resolved to policy=%s load=%d, want %s/%d",
				i, u.Scenario.Policy, u.Scenario.Tasks[0].LoadPct, w.policy, w.load)
		}
		if u.Scenario.Sweep != nil {
			t.Errorf("unit %d still carries sweep axes", i)
		}
	}
	// The original scenario must be untouched by expansion.
	if s.Policy != "Default" || s.Tasks[0].LoadPct != 70 {
		t.Errorf("expansion mutated the source scenario: %+v", s)
	}
}

// TestExpandTupleAxis checks that tuple values set their fields together.
func TestExpandTupleAxis(t *testing.T) {
	s := &Scenario{
		Version: Version, Name: "t", Policy: "Default",
		Tasks: []Task{lcTask(workload.Silo, 40), lcTask(workload.Moses, 40)},
		Sweep: []Axis{
			tupleAxis([]string{"tasks[0].app", "tasks[1].app"},
				[]string{workload.Xapian, workload.ImgDNN},
				[]string{workload.Moses, workload.Silo}),
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	units := s.MustExpand()
	if len(units) != 2 {
		t.Fatalf("got %d units, want 2", len(units))
	}
	u0 := units[0].Scenario
	if u0.Tasks[0].App != workload.Xapian || u0.Tasks[1].App != workload.ImgDNN {
		t.Errorf("unit 0 apps = %s,%s", u0.Tasks[0].App, u0.Tasks[1].App)
	}
	wantLabel := "tasks[0].app=xapian tasks[1].app=img-dnn"
	if units[0].Label != wantLabel {
		t.Errorf("unit 0 label = %q, want %q", units[0].Label, wantLabel)
	}
}

// TestExpandCombinationOverBudget: each axis value fits alone (so Validate
// passes) but one combination exceeds the core budget — Expand must reject it.
func TestExpandCombinationOverBudget(t *testing.T) {
	s := &Scenario{
		Version: Version, Name: "t", Policy: "Default",
		Tasks: []Task{lcTask(workload.Silo, 70),
			beTask(workload.IBench, 2), beTask(workload.IBench, 2)},
		Sweep: []Axis{
			intAxis("tasks[1].threads", 2, 4),
			intAxis("tasks[2].threads", 2, 4),
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	_, err := s.Expand()
	if err == nil {
		t.Fatal("Expand accepted a 9-core combination on an 8-core machine")
	}
	if !strings.Contains(err.Error(), "mix needs 9 cores") {
		t.Errorf("Expand error = %v, want core-budget message", err)
	}
}

// TestAxisAccessors checks the string value decoder.
func TestAxisAccessors(t *testing.T) {
	sa := strAxis("policy", "Default", "PIVOT")
	if got := sa.Strings(); got[0] != "Default" || got[1] != "PIVOT" {
		t.Errorf("Strings = %v", got)
	}
}

// TestBuiltinsValid: every builtin validates and expands; the registry key
// matches the scenario name.
func TestBuiltinsValid(t *testing.T) {
	reg := Builtins()
	if len(reg) == 0 {
		t.Fatal("no builtins")
	}
	for id, s := range reg {
		if s.Name != id {
			t.Errorf("builtin %q has name %q", id, s.Name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %s: %v", id, err)
			continue
		}
		units, err := s.Expand()
		if err != nil {
			t.Errorf("builtin %s: Expand: %v", id, err)
			continue
		}
		if len(units) == 0 {
			t.Errorf("builtin %s expands to no units", id)
		}
	}
	// Spot-check the biggest sweep: 5 apps x 5 loads x 4 methods.
	if n := len(MustBuiltin("fig13").MustExpand()); n != 100 {
		t.Errorf("fig13 expands to %d units, want 100", n)
	}
	if n := len(MustBuiltin("fig1").MustExpand()); n != 20 {
		t.Errorf("fig1 expands to %d units, want 20", n)
	}
	ids := BuiltinIDs()
	if !sort_StringsAreSorted(ids) {
		t.Errorf("BuiltinIDs not sorted: %v", ids)
	}
}

func sort_StringsAreSorted(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// TestMustHelpers covers the panic paths of the Must* accessors.
func TestMustHelpers(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("MustBuiltin", func() { MustBuiltin("fig99") })
	s := MustBuiltin("fig1")
	mustPanic("MustAxis", func() { s.MustAxis("tasks[9].app") })
	if a := s.MustAxis("policy"); len(a.Strings()) != 4 {
		t.Errorf("fig1 policy axis has %d values", len(a.Strings()))
	}
}

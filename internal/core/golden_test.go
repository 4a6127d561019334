package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"j2kcell/internal/cell"
	"j2kcell/internal/codec"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/workload"
)

// Cell-model golden digests: the simulation is deterministic, so each
// config's modeled profile — makespan, per-stage cycles, DMA and memory
// traffic, Local Store high water, per-PE busy cycles — and its
// codestream hash to a fixed value. A change to a digest means the
// modeled figures moved. If that is intentional, run the test with -v:
// it logs the new digests to paste in here.
var goldenCellModel = map[string]string{
	"gray-97x61/lossless/qs20-16x2":          "08a6d1a6b87e3e76a1b59509fcab858ffa012c8275e72098be312a87b90922a7",
	"gray-97x61/lossless/spe0":               "a415a82aff7853173bcfd7857f09e76c8a1637d6f924514c0f36438363f6070f",
	"gray-97x61/lossless/spe1":               "4f84d62471d799d7dda210541f571d27f7bee380c9ab16f5e84f31b50cdfc362",
	"gray-97x61/lossless/spe3":               "29453461b6ea9f8d525adaa182edbd74c4deb47317011e33ddbfe3c26c573633",
	"gray-97x61/lossless/spe4-buffer-depth1": "54489772cb99bf2e64168d5d8220c2934cd352bcb47f081d72e30d1fd6a949c3",
	"gray-97x61/lossless/spe4-chunk-width32": "981e9d0c09a89e85274c71b45dba0eebc32f21421e2cc48e7dd1453da1d3c483",
	"gray-97x61/lossless/spe4-loop-parallel": "b3126d64ed9dd5b1ec2d5919fad6d3000a41816a3b090a17fe05997dafc3260e",
	"gray-97x61/lossless/spe4-naive-dwt":     "1b7b5f13adf56c5029733d93279944e8e55f97150d0da4cc863728ddedda5c09",
	"gray-97x61/lossless/spe4-ppe-t1":        "d8c7439c401491d8cbe7a1cfda3ec232feab309fabe5104e5c8b4d72c773402a",
	"gray-97x61/lossless/spe4-static-t1":     "1e4cc9aca12b11cb0ad4f49eeab54eccd39ea44fbb312a802f945c1e5da715d5",
	"gray-97x61/lossless/spe8":               "b8a3def3c48f0d346c7ebc5892dc9f181806b5da57b027f2cf5919bfc8e6d360",
	"gray-97x61/rate0.1/qs20-16x2":           "fb84637040e3afa3740bbeb779dee2045cbab16d442579d011a84eef087c001a",
	"gray-97x61/rate0.1/spe0":                "fa682fce6845ff0154b4d192bb36b7ab5d9d2db1d3cfcb17105dbdffea18323f",
	"gray-97x61/rate0.1/spe1":                "9f8cf9db4369d1034965850d5bb2ed58480c930072753e59bf56b484dc409cf0",
	"gray-97x61/rate0.1/spe3":                "37819c83c272943a6488188e8b1f11ec488551182bff9c39e221bf8f118676b7",
	"gray-97x61/rate0.1/spe4-buffer-depth1":  "a93763f34e6bf2ac0bc43a869e40218d57d5ce135119192789ab8b2f372f028e",
	"gray-97x61/rate0.1/spe4-chunk-width32":  "cfdbe0047c3d19107f2f3dedf56ed2f04924bb6cf9721f718be52549fb5d64a9",
	"gray-97x61/rate0.1/spe4-fixed-point97":  "5019457edfe4361f532690c095b4cf47e42a2b46e1e620ff39346cdbc984d47c",
	"gray-97x61/rate0.1/spe4-loop-parallel":  "58ff362adb789d76f85b656f20122d3d1d8cb07606c191d88524fc92c99eef36",
	"gray-97x61/rate0.1/spe4-naive-dwt":      "10bb2fc7abfedab62200f32b5877e9e8cfb9cdaef407fc7368b7c3e39b59e854",
	"gray-97x61/rate0.1/spe4-ppe-t1":         "3091e7f9017e37e1881efc91cc4884a194af4a2507481083706cd7d03362e245",
	"gray-97x61/rate0.1/spe4-static-t1":      "0d20d46efa129f47f12a16d26bbe33af1ee239bed711bc8b28ec2691b992b804",
	"gray-97x61/rate0.1/spe8":                "37a11d4e9a87d8fcd9e8f44d221fe28c48c397359ea2bc26ac0fc9b646e450f2",
	"rgb-130x90/lossless/qs20-16x2":          "72cada3f8e5b391dde3c531215f3fbb0b6dcf8631acef47bb688758e96d478f2",
	"rgb-130x90/lossless/spe0":               "921954c5f2cad19a0a609b82d18b1745f3fd554e105fe5af2121b2b7e464dc84",
	"rgb-130x90/lossless/spe1":               "6be25d0958304fee6ac53d1174531b1b06695477cc12a187157736e52b8f69ef",
	"rgb-130x90/lossless/spe3":               "68675d96b6cc6edea460103d312fd5806aff29bbcc379fac1ef585796591ac83",
	"rgb-130x90/lossless/spe4-buffer-depth1": "05289510ac0191a56411aa21216824017d36611f3b73712701cf61d5808af515",
	"rgb-130x90/lossless/spe4-chunk-width32": "c1cfe9609d955aa8276d11ff6aba7bdd8c50bae71e5f0f74740976c1d104ca53",
	"rgb-130x90/lossless/spe4-loop-parallel": "f70e9b0458b6ba8db7cdf012ccb66ad5c012e11f6b3dca9595f9bf49eddc9423",
	"rgb-130x90/lossless/spe4-naive-dwt":     "451ab3d2d9e27ba9f500e6cbbf61272e75f273373d1f0e134cba2a427e862619",
	"rgb-130x90/lossless/spe4-ppe-t1":        "a3b95aa6b5b52e88d333d3a5b1faa075e2dcb6c02f106a2f554ca26405eec94d",
	"rgb-130x90/lossless/spe4-static-t1":     "b241be0ee43b90dd93f3f96578850c08bf942aa44da79866004a86223e684c29",
	"rgb-130x90/lossless/spe8":               "b3945957ff61fefa0e91d28ea4561faff6b73796bd1471b968c48895f3ecbcf5",
	"rgb-130x90/rate0.1/qs20-16x2":           "1cf3b706f343f4b99d4ec5a338dfd257bcfa88d10711a36e5774bb7063538f7a",
	"rgb-130x90/rate0.1/spe0":                "254d97b7bae59925dd8258675038f3cb156d7dd904dc3626962c99a63491bb61",
	"rgb-130x90/rate0.1/spe1":                "0219b60cc24b7731c2f567e796155eee3100bf748e8102d1b2c4546f4d07b9b5",
	"rgb-130x90/rate0.1/spe3":                "c060bba5153f8a71a4bab67b55e4e8a7007239c15e7e56eaae09130f3fa4b689",
	"rgb-130x90/rate0.1/spe4-buffer-depth1":  "7a4a554ed6fb7d7461e3a1714a5fe0c47f74d8c08aca74bf26c63fc66761a58d",
	"rgb-130x90/rate0.1/spe4-chunk-width32":  "a2ea6f2d01808b0a8841c2f31138c9583a214a3937a550f1c1f1807f8fd90dd6",
	"rgb-130x90/rate0.1/spe4-fixed-point97":  "1051d6fa564d05cdc9621cfd2805dd7f3e81d0516f794f68bdda12fa66414031",
	"rgb-130x90/rate0.1/spe4-loop-parallel":  "07cdfdbadf7636e3629ff74e42d3843eebea5e4f0a6b4a55166541c14ce273de",
	"rgb-130x90/rate0.1/spe4-naive-dwt":      "b2c9b40c4eed045ef94c7f6ce62d4ef7e317108f5ba5e70d4db52a1084e14231",
	"rgb-130x90/rate0.1/spe4-ppe-t1":         "3ad0005d682a553387cb5a34e7efe971a28e54d1b2e5217c9fbfca882d2ec5ee",
	"rgb-130x90/rate0.1/spe4-static-t1":      "b7dfc2813e1577632fbfada9f78c3418640a27b8d79d40c203041c97fe0a5c8e",
	"rgb-130x90/rate0.1/spe8":                "4b676aa9dadee36a23b29a153d5f865b08de8b60d40ed73551099dc4919a5113",
}

// cellModelConfigs is the golden matrix for one image and codec mode:
// the SPE-count sweep, one config per ablation knob, and the two-chip
// QS20 blade with two PPE threads.
func cellModelConfigs(opt codec.Options) map[string]Config {
	cfgs := map[string]Config{}
	for _, n := range []int{0, 1, 3, 8} {
		cfgs[fmt.Sprintf("spe%d", n)] = DefaultConfig(n, opt)
	}
	knobs := map[string]func(*Config){
		"naive-dwt":     func(c *Config) { c.NaiveDWT = true },
		"static-t1":     func(c *Config) { c.StaticT1 = true },
		"ppe-t1":        func(c *Config) { c.PPET1 = true },
		"loop-parallel": func(c *Config) { c.LoopParallel = true },
		"buffer-depth1": func(c *Config) { c.BufferDepth = 1 },
		"chunk-width32": func(c *Config) { c.ChunkWidth = 32 },
	}
	if !opt.Lossless {
		knobs["fixed-point97"] = func(c *Config) { c.FixedPoint97 = true }
	}
	for name, set := range knobs {
		cfg := DefaultConfig(4, opt)
		set(&cfg)
		cfgs["spe4-"+name] = cfg
	}
	cfgs["qs20-16x2"] = Config{Cell: cell.QS20Config(16, 2), Codec: opt}
	return cfgs
}

// cellModelDigest hashes every modeled figure of a run together with
// the codestream.
func cellModelDigest(r *Result) string {
	h := sha256.New()
	data := sha256.Sum256(r.Data)
	fmt.Fprintf(h, "cycles %d\n", r.Cycles)
	for _, s := range r.Stages {
		fmt.Fprintf(h, "stage %s %d\n", s.Name, s.Cycles)
	}
	fmt.Fprintf(h, "dma %d %d %d\nmem %d\nls %d\n", r.DMABytes, r.DMALineBytes, r.DMACmds, r.MemBytes, r.LSHighWater)
	fmt.Fprintf(h, "spe %v\nppe %v\ndata %x\n", r.SPEBusy, r.PPEBusy, data)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCellModelGolden pins the Cell model's modeled profile over the
// SPE counts and ablation knobs, for an RGB and a one-component image
// in both codec modes, so a refactor of the stage kernels that moves
// any figure of the reproduction is loud.
func TestCellModelGolden(t *testing.T) {
	rgb := workload.Dial(130, 90, 7, 4)
	gray := workload.Dial(97, 61, 11, 4)
	gray.Comps = gray.Comps[:1]
	images := map[string]*imgmodel.Image{"rgb-130x90": rgb, "gray-97x61": gray}
	modes := map[string]codec.Options{"lossless": {Lossless: true}, "rate0.1": {Rate: 0.1}}

	var names []string
	got := map[string]string{}
	for iname, img := range images {
		for mname, opt := range modes {
			for cname, cfg := range cellModelConfigs(opt) {
				name := iname + "/" + mname + "/" + cname
				res, err := Encode(img, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				names = append(names, name)
				got[name] = cellModelDigest(res)
			}
		}
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%q: %q,", name, got[name])
		want, ok := goldenCellModel[name]
		if !ok {
			t.Errorf("%s: no golden digest; add %q", name, got[name])
			continue
		}
		if got[name] != want {
			t.Errorf("%s: modeled profile changed:\n  got  %s\n  want %s", name, got[name], want)
		}
	}
	if len(goldenCellModel) != len(names) {
		t.Errorf("golden table has %d entries, the matrix %d", len(goldenCellModel), len(names))
	}
}

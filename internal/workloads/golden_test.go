package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"vcache/internal/trace"
)

// TestGeneratorStreamsGolden pins every generator's output: the sha256 of
// its v4 stream (BuildChunked at the default ChunkOptions) at two
// parameter sets. The stream carries every instruction, lane address and
// chunk cut, and its footer the premap order and summary, so a generator
// change that moves any of them moves a digest here. A moved digest is a
// behavioural change of the generators: bump GeneratorVersion (it keys
// cached traces and results) and record the new digests.
func TestGeneratorStreamsGolden(t *testing.T) {
	cases := []struct {
		p    Params
		want map[string]string
	}{
		{DefaultParams(), map[string]string{
			"bc":            "c3c571fd799fd9c86c2b31a5a90a9bbd549fa746a04f0929f7bf267553929af1",
			"color_maxmin":  "7c6fa58602cda8e5e671c5ca1c9e4ba986e5c774e3b7efd01ceb73310188fa94",
			"color_max":     "5485f48cbca12f762d2bdbb84e378c7358afb8b6528d3b5e466941c998770ba4",
			"fw":            "49d72dd4090a67af6c5a018a41546277d3442f5cdc5f4864e820fa1868b4ec27",
			"fw_block":      "c77f74ef085c090c91547aecf17c2c853bc590d7fd5b1329ee8e2d7991f61fff",
			"mis":           "b89c467db7bae33e6b90135020e3b4c6d0e5937c1656e204ffc0f6f5d783ea5e",
			"pagerank":      "b3258d04404ab778b1595e998c99b9997d6997b68455959b03d0cb50f1ec6657",
			"pagerank_spmv": "035f82b0422613b20907e254a9f95fa4b44e46a2308ecdb3badfe8b8c82b9418",
			"kmeans":        "069fb52b036d4443a10d1941a23a540b52980904e1654521ed781838165943e4",
			"backprop":      "bd439da9b374fcd9dc8eaf0c53b256e0b9616cdf24dc7feff19bc8d5357c3445",
			"bfs":           "f46c87a963567a025158720880dc9835213998b64b916898f233d0417a3a1552",
			"hotspot":       "b62292d28bd2e62fcb303074eba4f1c8abd574a2e3dcbd6f4b97d898a4a69a8a",
			"lud":           "4e39c99ffa6a7d673601a0555855954bf46fb96f572d3bea745fd9cfdbaef1f6",
			"nw":            "6ad7c890c2b279b324b48dea7f4d7e07d4caafaf01c9783c1ab31d916a278bb3",
			"pathfinder":    "b5765be11b513a03ed21f8ff1e10e8bbdff5382446499a6896a1ae1fdaf8c1d0",
		}},
		{Params{Scale: 2, NumCUs: 4, WarpsPerCU: 2, Seed: 7}, map[string]string{
			"bc":            "fd9efdde7d3f4a577e0f12379b2b1e11d9afd38fc68a5edfcfc83b2f75fca328",
			"color_maxmin":  "06a067f5ec8e8f3426a0b318f5f2ab47a14330288e184aa06373a62ca4266bed",
			"color_max":     "9021855350103351319eff032533ef42ed958d248bcd221432566353655c2bb5",
			"fw":            "b4931ec9619b8ab3b0be495a5bfece645fe02ce511c103e97b70d29d9436e3bd",
			"fw_block":      "aa8c80a893c8c0cb65ebcaa37016e61b4203584b2c509dffd1f4ff1d4e51e995",
			"mis":           "9c794b027188471506fd883a5a3c6607b36ea81670dd1b4151f2afb7c022b941",
			"pagerank":      "6e622c0ed1731cd22764c13375e8264dcd8499524b25600c86da1ccab6d68b00",
			"pagerank_spmv": "8998d447dd9147908696d41ee003f0baf7c3156dcf00ed26df8b13267f8e93e8",
			"kmeans":        "84e3afa0ae5a7d3c495d2bd03ace9221706226be09dea85c7363fa71e6e5aad0",
			"backprop":      "94ace164b5148c01965d9ce0b43b81314b9658294f84c5f2ac186b2ed25efcfb",
			"bfs":           "ae017e729ff2ed1bc499fde709933069987b7e78e1c91d1865aa4cdd717ec5a9",
			"hotspot":       "2a609827837baae173ec46f96fcc86b78fb91b7208b79f938eb11f664c29b2f1",
			"lud":           "e768fb03243b343faec66d380c8e5923c9820d9b00ad3e04ce9e58b9a40ab0c3",
			"nw":            "b68b639ca8581785cb71e2ab09e1dbed02557c811d471eee17021c25d20936ad",
			"pathfinder":    "548ec124223250cac37df7ac31d7e7af40a9941e878aad0b5982f68ac37698a2",
		}},
	}
	for _, tc := range cases {
		for _, g := range All() {
			h := sha256.New()
			if _, err := g.BuildChunked(tc.p, h, trace.ChunkOptions{}); err != nil {
				t.Fatalf("%s %+v: BuildChunked: %v", g.Name, tc.p, err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want[g.Name] {
				t.Errorf("%s %+v: stream sha256 %s, want %s", g.Name, tc.p, got, tc.want[g.Name])
			}
		}
	}
}

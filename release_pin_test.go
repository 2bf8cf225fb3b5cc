package hcoc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// releasePins are the SHA-256 digests of the v2 artifact for the
// benchmark-shaped housing tree (dataset seed 1, scale 0.05, 3 levels,
// 1,983 nodes) released with K=1000 and epsilon 1, by release seed.
// Performance work on the estimation path must leave them unchanged:
// the artifact is a pure function of (data, options, seed).
var releasePins = map[int64]string{
	1: "42ae4ab72b76accd1b40a0ea25e88bc2bc9f976a9b7ea21e66f8a4f9e40b851e",
	2: "4150b437bc36a37439cf76daf05e2227444ad5eba98261491bdb8c7e2fbb5cb2",
	3: "eeda64a73630a5c523f6e43ab1f4f9eb51a33a04bda0aa8cc7f590e7941fb064",
}

func TestReleaseArtifactPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("releases a 1,983-node tree six times")
	}
	tree, err := SyntheticTree(DatasetHousing, DatasetConfig{Seed: 1, Scale: 0.05, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				rel, err := ReleaseSparse(tree, Options{Epsilon: 1, K: 1000, Seed: seed, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := WriteReleaseSparse(&buf, rel, 1); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != releasePins[seed] {
					t.Fatalf("artifact sha256 = %s, want %s", got, releasePins[seed])
				}
			})
		}
	}
}

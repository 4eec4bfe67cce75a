package dtree

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// jsonNode is the serialized form of a Node.
type jsonNode struct {
	Feature   int       `json:"feature"`
	Threshold float64   `json:"threshold,omitempty"`
	Label     int       `json:"label"`
	Counts    []int     `json:"counts,omitempty"`
	Samples   int       `json:"samples"`
	Impurity  float64   `json:"impurity"`
	Left      *jsonNode `json:"left,omitempty"`
	Right     *jsonNode `json:"right,omitempty"`
}

// Wire is the serialized form of a Tree. The format is the repo's model
// exchange format: models are trained off-line, written to disk, and
// loaded by the tuner at runtime without recompiling the application —
// the paper's "pluggable models" property. A decoder of a body that holds
// a tree decodes it into a Wire in the same encoding/json pass as the rest
// of the body, and Wire.Tree checks and builds it.
type Wire struct {
	Format       string    `json:"format"`
	NumFeatures  int       `json:"num_features"`
	NumClasses   int       `json:"num_classes"`
	FeatureNames []string  `json:"feature_names,omitempty"`
	Root         *jsonNode `json:"root"`
}

const formatID = "apollo-dtree-v1"

func toJSONNode(n *Node) *jsonNode {
	if n == nil {
		return nil
	}
	return &jsonNode{
		Feature:   n.Feature,
		Threshold: n.Threshold,
		Label:     n.Label,
		Counts:    n.Counts,
		Samples:   n.Samples,
		Impurity:  n.Impurity,
		Left:      toJSONNode(n.Left),
		Right:     toJSONNode(n.Right),
	}
}

func fromJSONNode(j *jsonNode) (*Node, error) {
	if j == nil {
		return nil, nil
	}
	n := &Node{
		Feature:   j.Feature,
		Threshold: j.Threshold,
		Label:     j.Label,
		Counts:    j.Counts,
		Samples:   j.Samples,
		Impurity:  j.Impurity,
	}
	if j.Feature >= 0 {
		if j.Left == nil || j.Right == nil {
			return nil, fmt.Errorf("dtree: internal node on feature %d missing a child", j.Feature)
		}
		var err error
		if n.Left, err = fromJSONNode(j.Left); err != nil {
			return nil, err
		}
		if n.Right, err = fromJSONNode(j.Right); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// MarshalJSON encodes the tree in the apollo-dtree-v1 format.
func (t *Tree) MarshalJSON() ([]byte, error) {
	return json.Marshal(Wire{
		Format:       formatID,
		NumFeatures:  t.NumFeatures,
		NumClasses:   t.NumClasses,
		FeatureNames: t.FeatureNames,
		Root:         toJSONNode(t.Root),
	})
}

// UnmarshalJSON decodes a tree from the apollo-dtree-v1 format.
func (t *Tree) UnmarshalJSON(data []byte) error {
	var j Wire
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	d, err := j.Tree()
	if err == nil {
		*t = *d
	}
	return err
}

// Tree checks the decoded tree and builds it.
func (j *Wire) Tree() (*Tree, error) {
	if j.Format != formatID {
		return nil, fmt.Errorf("dtree: unknown model format %q (want %q)", j.Format, formatID)
	}
	if j.Root == nil {
		return nil, fmt.Errorf("dtree: model has no root node")
	}
	root, err := fromJSONNode(j.Root)
	if err != nil {
		return nil, err
	}
	if err := validate(root, j.NumFeatures, j.NumClasses); err != nil {
		return nil, err
	}
	return &Tree{Root: root, NumFeatures: j.NumFeatures, NumClasses: j.NumClasses, FeatureNames: j.FeatureNames}, nil
}

func validate(n *Node, numFeatures, numClasses int) error {
	if n == nil {
		return nil
	}
	if n.Feature >= numFeatures {
		return fmt.Errorf("dtree: node splits on feature %d but model has %d features", n.Feature, numFeatures)
	}
	if n.Label < 0 || n.Label >= numClasses {
		return fmt.Errorf("dtree: node label %d outside [0,%d)", n.Label, numClasses)
	}
	if err := validate(n.Left, numFeatures, numClasses); err != nil {
		return err
	}
	return validate(n.Right, numFeatures, numClasses)
}

// Save writes the tree to the named file as indented JSON.
func (t *Tree) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close() //apollo:errok Close on the error path; the write error is already being returned
		return err
	}
	return f.Close()
}

// Write encodes the tree as indented JSON to w.
func (t *Tree) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Load reads a tree from the named JSON file.
func Load(path string) (*Tree, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Tree
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("dtree: loading %s: %w", path, err)
	}
	return &t, nil
}

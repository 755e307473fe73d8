package rmesh

import "pdn3d/internal/pdn"

// BuildTopology freezes spec's mesh shape for the tests: the topology of
// a full build, from which NewModel mints restamped models.
func BuildTopology(spec *pdn.Spec) (*Topology, error) {
	m, err := Build(spec)
	if err != nil {
		return nil, err
	}
	return m.Topology(), nil
}

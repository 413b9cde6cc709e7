package experiments

import (
	"encoding/json"
	"io"
)

// NamedTable pairs a figure id ("fig13", "area", ...) with its regenerated
// table, for machine-readable report output.
type NamedTable struct {
	Name  string `json:"name"`
	Table *Table `json:"table"`
}

// AllTables regenerates every figure in paper order (the same set and order
// as All) and returns the tables instead of rendering them. Sampled sweeps
// carry their per-point estimates and confidence intervals in
// Table.Sampling.
func AllTables(opts Options) ([]NamedTable, error) {
	var out []NamedTable
	err := each(figures, opts, func(name string, t *Table) error {
		out = append(out, NamedTable{Name: name, Table: t})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteJSON renders tables as one indented JSON document:
// {"figures": [{"name": ..., "table": {...}}, ...]}. This is the `sfexp
// -json` output format.
func WriteJSON(w io.Writer, tables []NamedTable) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Figures []NamedTable `json:"figures"`
	}{tables})
}

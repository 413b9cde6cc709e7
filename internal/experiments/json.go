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

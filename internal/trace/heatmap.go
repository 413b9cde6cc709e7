// ASCII NoC link heatmap: the mesh drawn as a grid of routers with each
// directed link shaded by the flits it carried.
package trace

import (
	"fmt"
	"io"
)

// heatRamp shades link utilization from idle to saturated.
const heatRamp = " .:-=+*#@"

func heatChar(flits, max uint64) byte {
	if max == 0 || flits == 0 {
		return heatRamp[0]
	}
	idx := int(flits * uint64(len(heatRamp)-1) / max)
	if idx >= len(heatRamp) {
		idx = len(heatRamp) - 1
	}
	if idx == 0 {
		idx = 1 // non-zero traffic always visible
	}
	return heatRamp[idx]
}

// RenderLinkHeatmap draws a meshW x meshH mesh with per-link flit
// intensity. flits is indexed tile*NumLinkDirs+dir (DirEast..DirSouth),
// matching Tracer.LinkFlits. Horizontal link pairs render as `>`/`<` rows
// of shade characters between routers; vertical pairs as `v`/`^` columns.
func RenderLinkHeatmap(w io.Writer, meshW, meshH int, flits []uint64) {
	if meshW <= 0 || meshH <= 0 || len(flits) < meshW*meshH*NumLinkDirs {
		fmt.Fprintln(w, "no link data")
		return
	}
	var max uint64
	for _, f := range flits {
		if f > max {
			max = f
		}
	}
	link := func(tile, dir int) uint64 { return flits[tile*NumLinkDirs+dir] }

	fmt.Fprintf(w, "NoC link heatmap (max %d flits/link, ramp %q):\n", max, heatRamp[1:])
	for y := 0; y < meshH; y++ {
		// Router row: [00] >E> [01] ...  east over west between neighbours.
		for x := 0; x < meshW; x++ {
			tile := y*meshW + x
			fmt.Fprintf(w, "[%02d]", tile)
			if x+1 < meshW {
				e := heatChar(link(tile, DirEast), max)
				we := heatChar(link(tile+1, DirWest), max)
				fmt.Fprintf(w, " %c%c ", e, we)
			}
		}
		fmt.Fprintln(w)
		if y+1 >= meshH {
			continue
		}
		// Vertical links: south (down) and north (up) per column.
		for x := 0; x < meshW; x++ {
			tile := y*meshW + x
			s := heatChar(link(tile, DirSouth), max)
			n := heatChar(link(tile+meshW, DirNorth), max)
			fmt.Fprintf(w, " %c%c ", s, n)
			if x+1 < meshW {
				fmt.Fprint(w, "    ")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "pairs: horizontal = east,west; vertical = south,north")
}

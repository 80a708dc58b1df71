package svgplot

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/grid"
)

// groupPalette colors hex-map groups (polling cycles); lighter to darker
// conveys earlier to later cycles.
var groupPalette = []string{
	"#c6dbef", "#9ecae1", "#6baed6", "#4292c6", "#2171b5", "#08519c",
	"#083b7a", "#062a5c", "#041d40", "#021126",
}

// HexMap renders a residing area of threshold distance d on the hexagonal
// grid as an SVG map, coloring each cell by the polling cycle that pages
// it. ringGroup[i] is the 0-based cycle index of ring i (as produced by
// paging.Partition.RingGroup); the center cell is outlined.
func HexMap(w io.Writer, title string, d int, ringGroup []int) error {
	if d < 0 {
		return fmt.Errorf("svgplot: negative distance %d", d)
	}
	if len(ringGroup) != d+1 {
		return fmt.Errorf("svgplot: %d ring groups for distance %d", len(ringGroup), d)
	}
	groups := 0
	for i, g := range ringGroup {
		if g < 0 {
			return fmt.Errorf("svgplot: ring %d has negative group", i)
		}
		if g+1 > groups {
			groups = g + 1
		}
	}
	if groups == 0 {
		return errors.New("svgplot: no groups")
	}

	const size = 16.0 // hex circumradius in px
	// Pointy-top axial → pixel.
	toXY := func(h grid.Hex) (float64, float64) {
		x := size * math.Sqrt(3) * (float64(h.Q) + float64(h.R)/2)
		y := size * 1.5 * float64(h.R)
		return x, y
	}
	span := size * math.Sqrt(3) * (float64(d) + 1.5)
	width := int(2*span) + 40
	height := int(size*3*(float64(d)+1.5)) + 70
	cx := float64(width) / 2
	cy := float64(height)/2 + 12

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&sb, `<text x="%g" y="20" font-family="sans-serif" font-size="14" font-weight="bold" text-anchor="middle">%s</text>`+"\n",
		cx, escape(title))

	hexPath := func(x, y float64) string {
		var pts []string
		for i := 0; i < 6; i++ {
			a := math.Pi / 180 * (60*float64(i) - 30) // pointy-top
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", x+size*math.Cos(a), y+size*math.Sin(a)))
		}
		return strings.Join(pts, " ")
	}

	for _, cell := range grid.HexDisk(grid.Hex{}, d) {
		x, y := toXY(cell)
		g := ringGroup[cell.Ring()]
		color := groupPalette[g%len(groupPalette)]
		stroke := "#666"
		sw := 0.8
		if cell == (grid.Hex{}) {
			stroke, sw = "#d62728", 2.5
		}
		fmt.Fprintf(&sb, `<polygon points="%s" fill="%s" stroke="%s" stroke-width="%g"/>`+"\n",
			hexPath(cx+x, cy+y), color, stroke, sw)
	}

	// Legend: one swatch per cycle, bottom row.
	for g := 0; g < groups; g++ {
		lx := 20 + float64(g)*92
		ly := float64(height) - 18
		fmt.Fprintf(&sb, `<rect x="%g" y="%g" width="14" height="14" fill="%s" stroke="#666"/>`+"\n",
			lx, ly-11, groupPalette[g%len(groupPalette)])
		fmt.Fprintf(&sb, `<text x="%g" y="%g" font-family="sans-serif" font-size="12">cycle %d</text>`+"\n",
			lx+18, ly, g+1)
	}
	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

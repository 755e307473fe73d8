// Package geom provides the 2-D geometry primitives used by the floorplan,
// PDN layout, and resistive-mesh builders: points, rectangles, and uniform
// grids with rasterization helpers.
//
// All coordinates are in millimetres (see internal/units). The origin of a
// die is its lower-left corner; x grows to the right, y grows upward.
package geom

import (
	"fmt"
	"math"
)

// Point is a 2-D location in mm.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

func (p Point) String() string { return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [X0,X1) x [Y0,Y1) in mm.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// R builds a rectangle from its lower-left corner and size.
func R(x, y, w, h float64) Rect { return Rect{x, y, x + w, y + h} }

// W returns the rectangle width.
func (r Rect) W() float64 { return r.X1 - r.X0 }

// H returns the rectangle height.
func (r Rect) H() float64 { return r.Y1 - r.Y0 }

// Area returns the rectangle area in mm².
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the rectangle's center point.
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Empty reports whether the rectangle has non-positive width or height.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Contains reports whether p lies inside r (half-open on the high edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X < r.X1 && p.Y >= r.Y0 && p.Y < r.Y1
}

// ContainsClosed reports whether p lies inside r including all edges.
func (r Rect) ContainsClosed(p Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		X0: math.Max(r.X0, s.X0), Y0: math.Max(r.Y0, s.Y0),
		X1: math.Min(r.X1, s.X1), Y1: math.Min(r.Y1, s.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Overlaps reports whether r and s share any interior area.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// Inset shrinks the rectangle by d on every side. A negative d grows it.
func (r Rect) Inset(d float64) Rect {
	return Rect{r.X0 + d, r.Y0 + d, r.X1 - d, r.Y1 - d}
}

// Translate shifts the rectangle by the vector p.
func (r Rect) Translate(p Point) Rect {
	return Rect{r.X0 + p.X, r.Y0 + p.Y, r.X1 + p.X, r.Y1 + p.Y}
}

// MirrorX mirrors the rectangle about the vertical line x = axis.
func (r Rect) MirrorX(axis float64) Rect {
	return Rect{2*axis - r.X1, r.Y0, 2*axis - r.X0, r.Y1}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%.3f,%.3f %.3fx%.3f]", r.X0, r.Y0, r.W(), r.H())
}

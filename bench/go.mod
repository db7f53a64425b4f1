module triolet/bench

go 1.24

require triolet v0.0.0

replace triolet => ../

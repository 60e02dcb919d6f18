module github.com/digs-net/digs/bench

go 1.22

require github.com/digs-net/digs v0.0.0

replace github.com/digs-net/digs => ../

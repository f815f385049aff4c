module github.com/appmult/retrain/bench

go 1.22

require github.com/appmult/retrain v0.0.0

replace github.com/appmult/retrain => ../
